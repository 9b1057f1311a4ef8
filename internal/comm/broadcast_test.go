package comm

import (
	"errors"
	"testing"
)

func bcastBuffers(p, n int, root int) [][]float64 {
	data := make([][]float64, p)
	for r := range data {
		data[r] = make([]float64, n)
		for i := range data[r] {
			if r == root {
				data[r][i] = float64(root*1000 + i)
			} else {
				data[r][i] = -1 // sentinel: must be overwritten
			}
		}
	}
	return data
}

func TestBroadcast(t *testing.T) {
	const p, n = 4, 6
	for root := 0; root < p; root++ {
		data := bcastBuffers(p, n, root)
		st, err := Broadcast(data, root, 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if want := float64(root*1000 + i); data[r][i] != want {
					t.Fatalf("root %d: rank %d elem %d = %v, want %v", root, r, i, data[r][i], want)
				}
			}
		}
		if got := st.IntraMessages + st.InterMessages; got != p-1 {
			t.Fatalf("root %d: %d messages, want %d", root, got, p-1)
		}
		if got := st.IntraVolume + st.InterVolume; got != float64((p-1)*n) {
			t.Fatalf("root %d: volume %v, want %v", root, got, float64((p-1)*n))
		}
	}
}

func TestBroadcastNodeAccounting(t *testing.T) {
	// p=4, g=2, root=0: ring hops 0→1 (intra), 1→2 (inter), 2→3 (intra).
	data := bcastBuffers(4, 3, 0)
	st, err := Broadcast(data, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.IntraMessages != 2 || st.InterMessages != 1 {
		t.Fatalf("intra/inter = %d/%d, want 2/1", st.IntraMessages, st.InterMessages)
	}
}

func TestBroadcastErrors(t *testing.T) {
	if _, err := Broadcast(nil, 0, 1); err == nil {
		t.Fatal("no ranks must error")
	}
	if _, err := Broadcast([][]float64{{1}, {2, 3}}, 0, 1); err == nil {
		t.Fatal("ragged buffers must error")
	}
	if _, err := Broadcast([][]float64{{1}, {2}}, 2, 1); err == nil {
		t.Fatal("out-of-range root must error")
	}
}

// TestBroadcastGuarded: a guarded Comm.Broadcast that fails aborts
// before any byte moves, so the recovery path's retry starts from
// pristine buffers; the retry with a nil guard completes.
func TestBroadcastGuarded(t *testing.T) {
	boom := errors.New("injected")
	data := bcastBuffers(3, 2, 0)
	if _, err := (Comm{GPN: 1, Guard: func() error { return boom }}).Broadcast(data, 0); !errors.Is(err, boom) {
		t.Fatalf("guard error not propagated: %v", err)
	}
	for r := 1; r < 3; r++ {
		for i, v := range data[r] {
			if v != -1 {
				t.Fatalf("guard failure mutated rank %d elem %d: %v", r, i, v)
			}
		}
	}
	if _, err := (Comm{GPN: 1}).Broadcast(data, 0); err != nil {
		t.Fatal(err)
	}
	if data[2][1] != float64(1) {
		t.Fatalf("retry after guard failure did not complete: %v", data[2])
	}
}
