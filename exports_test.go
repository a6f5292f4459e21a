package esti

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeep lists the exported functions and methods under internal/ that
// no program file calls but that stay: a test compares against them, a benchmark
// runs them, or they are the oracle an exactness test is held to. Keys are
// "pkg.Func" or "pkg.Type.Method"; each value says why it stays.
var exportKeep = map[string]string{
	// Oracles and reference forms a test holds production code to.
	"perf.DecodeProfile":       "exact per-step oracle the Decode tests compare perf.Decode against",
	"reference.AttendSeq":      "allocating form of the attention oracle the walk tests compare against",
	"reference.Model.Batch":    "oracle geometry the engine exactness tests read",
	"reference.Model.Generate": "the batch-1 token oracle the engine exactness tests compare against",
	"tensor.SoftmaxRows":       "reference softmax the attention kernel tests compare against",
	"tensor.Scale":             "allocating reference the in-place kernel tests compare against",
	"tensor.Add":               "allocating reference the in-place kernel tests compare against",
	"tensor.Mat.Clone":         "copies the inputs the destination-passing kernel tests overwrite",
	"tensor.TransposeInto":     "the transpose the MatMulT tests build their expected product with",
	"quant.Int8Mat.Dequantize": "reference the int8 GEMM and quantizer tests compare against",
	"simd.ScalarGemm":          "scalar twin the AVX2 tile is held to bit for bit",
	"sampling.Sample":          "the top-k/top-p sampling path of §3.5",
	"sampling.FilterTopKPSort": "sort-based twin FuzzFilterTopKP holds the heap filter to",
	"pareto.Dominates":         "the dominance relation the frontier tests check the frontier against",
	"ftdata.All":               "every FasterTransformer table, which the experiments tests sweep",

	// The only assertions of a paper result.
	"commcost.BestFFNLayout":       "the only assertion of Fig. 3's layout crossover",
	"commcost.OptimalGatherFactor": "the only assertion of Appendix A.2's optimal gather factor",

	// Wire-format cost forms and bounds the mesh byte tests match to the byte.
	"commcost.AllReduceWireVolume": "wire-format volume the collective byte tests match the mesh to",
	"commcost.ReduceScatterVolume": "Appendix A's byte form the wire-format volumes reduce to in the tests",
	"commcost.AllToAllVolume":      "Appendix A's byte form the wire-format volumes reduce to in the tests",
	"commcost.WireInt8Rows":        "cost-model form of the per-row int8 wire the byte tests price",
	"collective.Int8WireError":     "the int8 wire's error bound the collective tests size tolerances with",
	"engine.SlotKV.Bytes":          "a handoff's wire bytes, which the handoff test pins to the closed form: head-sharded multiquery n× batch-sharded, Fig. 4(b)'s replication",

	// Accounting the invariant and fuzz tests assert through.
	"mesh.Chip.BytesSent":                "per-chip traffic counter the mesh accounting tests read",
	"mesh.Chip.Int8BytesSent":            "per-chip traffic counter the mesh accounting tests read",
	"kvcache.Cache.UsedBytes":            "byte accounting the cache invariant tests read",
	"kvcache.Cache.RowsK":                "float read-back the cache round-trip and fuzz tests compare rows through",
	"kvcache.Cache.RowsV":                "float read-back the cache round-trip and fuzz tests compare rows through",
	"kvcache.Prefix.Refs":                "refcount the prefix store tests check returns to baseline",
	"partition.FFNLayout.WeightGathered": "layout class the planner and partition tests branch on",

	// The one helper every command's golden test runs its cases through.
	"golden.Run": "compares each command's output with its committed golden file; only tests run commands in-process",

	// Called by the root benchmarks and the allocation tests that share their setup.
	"engine.Engine.Reset": "the decode-step benchmarks reset the engine when its cache fills",
	"tensor.FromSlice":    "the microkernel benchmarks and their allocation tests wrap their operands with it",
}

// exportIface names the standard interfaces whose methods are called
// through the interface, never by name: a method is exempt when its
// receiver implements the interface that declares it.
var exportIface = map[string]string{
	"String": "fmt.Stringer", "Error": "error",
	"Len": "sort.Interface", "Less": "sort.Interface", "Swap": "sort.Interface",
	"Push": "container/heap.Interface", "Pop": "container/heap.Interface",
	"Run": "esti/internal/tensor.Task",
}

// TestEveryExportHasACaller fails when an exported function or method under
// internal/ is referenced only from _test.go files: either give it a
// program caller, delete it with the tests that test only it, or list it in
// exportKeep with the reason it stays. Programs under cmd/, examples/ and
// bench/ count as callers.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("type-checks the whole module from source; skipped under -short and -race")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	iface := func(name string) *types.Interface {
		if name == "error" {
			return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		}
		dot := strings.LastIndex(name, ".")
		pkg, err := imp.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		return pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface)
	}
	type decl struct{ name, pos string }
	var decls []decl
	used := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			bp, err := build.Default.ImportDir(dir, 0)
			if err != nil {
				if _, ok := err.(*build.NoGoError); ok {
					return nil
				}
				return err
			}
			abs, err := filepath.Abs(dir)
			if err != nil {
				return err
			}
			var files []*ast.File
			for _, name := range bp.GoFiles {
				// Absolute, as the importer names the files it parses, so
				// positions match across the two.
				f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, 0)
				if err != nil {
					return err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check("esti/"+filepath.ToSlash(dir), fset, files, info); err != nil {
				return err
			}
			for _, obj := range info.Uses {
				used[fset.Position(obj.Pos()).String()] = true
			}
			for _, sel := range info.Selections {
				used[fset.Position(sel.Obj().Pos()).String()] = true
			}
			if root != "internal" {
				return nil
			}
			for _, f := range files {
				for _, dd := range f.Decls {
					fd, ok := dd.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					name := bp.Name + "." + fd.Name.Name
					if fd.Recv != nil {
						recv := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
						if in, ok := exportIface[fd.Name.Name]; ok && types.Implements(recv, iface(in)) {
							continue
						}
						name = bp.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					decls = append(decls, decl{name, fset.Position(fd.Name.Pos()).String()})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stale := map[string]bool{}
	for name := range exportKeep {
		stale[name] = true
	}
	var orphans []string
	for _, d := range decls {
		_, keep := exportKeep[d.name]
		switch {
		case !used[d.pos] && !keep:
			orphans = append(orphans, d.name+" ("+d.pos+")")
		case used[d.pos] && keep:
			t.Errorf("exportKeep lists %s, which has a caller outside tests", d.name)
		}
		delete(stale, d.name)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported functions under internal/ have no caller outside tests; "+
			"call, delete, or list each in exportKeep:\n\t%s", len(orphans), strings.Join(orphans, "\n\t"))
	}
	for name := range stale {
		t.Errorf("exportKeep lists %s, which is not declared under internal/", name)
	}
}

// TestEveryUnexportedFuncIsReferenced fails when an unexported function or
// method under internal/ is referenced nowhere, not even by its package's
// tests: go vet reports no unused method, and TestEveryExportHasACaller
// reads only exported names. A method is exempt when its receiver
// implements an interface of its package that declares it, since such
// methods are called through the interface (a collective payload's send).
func TestEveryUnexportedFuncIsReferenced(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("type-checks the whole module from source; skipped under -short and -race")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var unused []string
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		var prog, files []*ast.File
		for i, name := range append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			if i < len(bp.GoFiles) {
				prog = append(prog, f)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check("esti/"+filepath.ToSlash(dir), fset, files, info)
		if err != nil {
			return err
		}
		// A generic function or method is used through its instances.
		used := map[types.Object]bool{}
		use := func(obj types.Object) {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for _, obj := range info.Uses {
			use(obj)
		}
		for _, sel := range info.Selections {
			use(sel.Obj())
		}
		var ifaces []*types.Interface
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range prog {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || fd.Name.IsExported() || fd.Name.Name == "init" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				if used[fn] || fd.Recv != nil && viaInterface(fn, ifaces) {
					continue
				}
				name := bp.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					name = bp.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				unused = append(unused, name+" ("+fset.Position(fd.Name.Pos()).String()+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d unexported functions under internal/ are referenced nowhere, tests included; delete each:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// viaInterface reports whether method fn's receiver, as a value or a
// pointer, implements one of ifaces that declares fn's name.
func viaInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// recvType is the base type name of a method receiver.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// raceEnabled is set by exports_race_test.go under -race.
var raceEnabled bool
