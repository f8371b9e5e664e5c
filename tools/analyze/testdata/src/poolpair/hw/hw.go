// Package hw is a fixture standing in for the NIC fragment pool,
// whose release is a put function taking the value, not a method on
// it.
package hw

type NIC struct{}

type frag struct{}

type Message struct{}

var fragFree []*frag

func (n *NIC) getFrag(m *Message, idx, size int) *frag { return &frag{} }

func putFrag(f *frag) { fragFree = append(fragFree, f) }

func balanced(n *NIC, m *Message) {
	f := n.getFrag(m, 0, 1)
	putFrag(f)
}

func leak(n *NIC, m *Message, cond bool) {
	f := n.getFrag(m, 0, 1) // want "NIC.getFrag is not released on every path"
	if cond {
		return
	}
	putFrag(f)
}
