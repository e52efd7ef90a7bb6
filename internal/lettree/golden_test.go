package lettree

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// TestPrunedCopyGolden pins the wire bytes of a boundary tree and of full
// LETs built from one fixed blob, so any change to the pruned-copy recursion
// (cell order, keep-open rule, particle ranges, root box) shows as a digest
// change. The digests hold on amd64; other architectures may fuse
// multiply-adds in the multipole sweep and round the moments differently.
func TestPrunedCopyGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	pos, mass := blob(5000, vec.V3{X: 1}, 1, 21)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	lb := boxOf(pos)
	cases := []struct {
		name string
		let  *LET
		want string
	}{
		{"boundary-depth4", BoundaryTree(tr, 4, lb), "c843359b4b3bf38090f1a60d05862a0ff515fc2f866c50b468744583dc2e93b6"},
		{"boundary-depth2", BoundaryTree(tr, 2, lb), "145ab6362eb0ee3ab333e3c6b81efbdb3df1628b09491ba2081d78c6e9fca3bc"},
		{"buildfor-far", BuildFor(tr, vec.Box{Min: vec.V3{X: 4}, Max: vec.V3{X: 6, Y: 1, Z: 1}}, 0.4, lb), "98db18a551c177990e20ec7ff2e9404303445ccb875c5fd31214c95f049424c6"},
		{"buildfor-self", BuildFor(tr, lb, 0.4, lb), "49fa8d050a408af90ceb5c1d6632943689396961bc28f2fcfeca766b33732daf"},
		{"empty", BuildFor(&octree.Tree{}, lb, 0.4, lb), "53b09ec847413663d6910cff2eab531652eb70eaa36a78011222a26a8424f238"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.let.Marshal())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Marshal digest %s, want %s", c.name, got, c.want)
		}
	}
}
