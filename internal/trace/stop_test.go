package trace

import "testing"

// stopAfter counts the references delivered to it and reports Stopped once
// it has seen limit of them: the smallest sink with an early-stop signal.
type stopAfter struct {
	seen, limit int64
}

func (s *stopAfter) Access(int64) { s.seen++ }

func (s *stopAfter) AccessRange(_, count int64) { s.seen += count }

func (s *stopAfter) EndLeaf() {}

func (s *stopAfter) Stopped() bool { return s.seen >= s.limit }

func TestReplayHonorsWindowStop(t *testing.T) {
	// A replay into a sink that stops after 7 references must halt there
	// instead of walking the rest of the trace, also across repetitions.
	b := &Builder{}
	for i := 0; i < 10_000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	s := &stopAfter{limit: 7}
	Replay(tr, s)
	if s.seen != 7 {
		t.Fatalf("replay fed %d references into a sink that stopped at 7", s.seen)
	}
	s = &stopAfter{limit: 7}
	ReplayRepeat(tr, s, 3, tr.MaxBlock()+1)
	if s.seen != 7 {
		t.Fatalf("repeat replay fed %d references into a sink that stopped at 7", s.seen)
	}
}
