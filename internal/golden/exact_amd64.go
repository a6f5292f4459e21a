//go:build !amd64.v3

package golden

// exact is set where Go never fuses a multiply and an add, so a printed
// number is the same on every machine of the target.
const exact = true
