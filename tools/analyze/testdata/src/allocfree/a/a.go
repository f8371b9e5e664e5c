// Package a exercises the //allocfree construct checks.
package a

import "fmt"

type rec struct{ n int }

// allocfree
func extendIdiom(dst []byte, n int) []byte {
	dst = append(dst, make([]byte, n)...) // compiler-recognized extension: exempt
	return dst
}

// allocfree
func badMake(n int) []byte {
	buf := make([]byte, n) // want "make in //allocfree function allocates"
	return buf
}

// allocfree
func badNew() *rec {
	return new(rec) // want "new in //allocfree function allocates"
}

// allocfree
func badFmt(err error) string {
	return fmt.Sprintf("x: %v", err) // want "fmt.Sprintf in //allocfree function"
}

// allocfree
func badClosure() func() {
	return func() {} // want "closure in //allocfree function"
}

func (r *rec) bump() { r.n++ }

func later(fn func()) {}

// allocfree
func badMethodValue(r *rec) {
	later(r.bump) // want "method value in //allocfree function"
}

// allocfree
func methodCallOK(r *rec, prebuilt func()) {
	r.bump()        // called, not bound
	later(prebuilt) // built once elsewhere
}

// allocfree
func badComposite() *rec {
	return &rec{} // want "composite literal in //allocfree function allocates"
}

// allocfree
func badConcat(a, b string) string {
	return a + b // want "string concatenation in //allocfree function"
}

// allocfree
func badConv(b []byte) string {
	return string(b) // want "conversion in //allocfree function copies"
}

// allocfree
func badBox(r rec) any {
	return r // want "interface boxing in //allocfree function"
}

// allocfree
func pointerBoxOK(r *rec) any {
	return r // pointer into interface: no copy of the record
}

// allocfree
func baselined() *rec {
	//analyze:allow allocfree cold path, demonstrated baseline
	return &rec{}
}

func unannotated(n int) []byte {
	return make([]byte, n)
}
