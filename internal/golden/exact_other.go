//go:build !amd64 || amd64.v3

package golden

const exact = false
