//go:build !amd64

package nn

// accumBlock4 is the pure-Go kernel on architectures without an assembly
// version.
func accumBlock4(y, w []float32, stride int, x0, x1, x2, x3 float32) {
	accumBlock4Generic(y, w, stride, x0, x1, x2, x3)
}
