package profile

import "testing"

func TestOdometerSourceMatchesWorstCaseSource(t *testing.T) {
	// With leafBox = 1 and closer(j) = b^j the odometer is exactly the
	// M_{a,b} limit stream.
	w, err := NewWorstCaseSource(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pow := func(level int) int64 {
		size := int64(1)
		for i := 0; i < level; i++ {
			size *= 4
		}
		return size
	}
	o, err := NewOdometerSource(8, 1, pow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		want, got := w.Next(), o.Next()
		if got != want {
			t.Fatalf("box %d: odometer %d, want M_{8,4} %d", i, got, want)
		}
	}
}

func TestOdometerSourceValidates(t *testing.T) {
	if _, err := NewOdometerSource(1, 1, func(int) int64 { return 1 }); err == nil {
		t.Fatal("a = 1 accepted")
	}
	if _, err := NewOdometerSource(4, 0, func(int) int64 { return 1 }); err == nil {
		t.Fatal("leaf box 0 accepted")
	}
}
