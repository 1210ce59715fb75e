package shaper

import (
	"bytes"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// drive pushes a deterministic request pattern through a shaper for n
// cycles.
func drive(s *RequestShaper, ids *mem.IDs, n sim.Cycle) {
	for now := sim.Cycle(0); now < n; now++ {
		if now%37 == 0 {
			s.TrySend(now, &mem.Request{ID: ids.Next(), Addr: uint64(now) * 64, CreatedAt: now})
		}
		s.Tick(now)
	}
}

// snap serializes a request shaper's full state.
func snap(s *RequestShaper) []byte {
	var e ckpt.Encoder
	s.Snapshot(&e)
	return e.Bytes()
}

// TestRequestShaperSnapshotRoundTrip: state after traffic restores into a
// fresh same-config shaper byte-identically, and the restored shaper
// still satisfies credit conservation.
func TestRequestShaperSnapshotRoundTrip(t *testing.T) {
	cfg := cfgWith([]int{3, 2, 2, 1, 1, 1, 0, 0, 0, 1}, 512, true)
	src, _, id := newReqShaper(cfg)
	drive(src, id, 4096)
	if err := src.CheckConservation(); err != nil {
		t.Fatalf("driven shaper broke conservation: %v", err)
	}
	before := snap(src)

	dst, _, _ := newReqShaper(cfg)
	if err := dst.Restore(ckpt.NewDecoder(before)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(snap(dst), before) {
		t.Fatal("restored shaper state differs from snapshot")
	}
	if err := dst.CheckConservation(); err != nil {
		t.Fatalf("restored shaper broke conservation: %v", err)
	}
	if dst.CreditBalance() != src.CreditBalance() || dst.FakeCreditBalance() != src.FakeCreditBalance() {
		t.Fatal("credit balances diverged across restore")
	}
}

// TestConservationViolationSurvivesRestore is the satellite-3 credit
// property: a ledger inconsistency seeded before the snapshot is still
// detected by the credit checker after restoring into a fresh shaper —
// restore must not launder broken accounting back to consistency.
func TestConservationViolationSurvivesRestore(t *testing.T) {
	cfg := cfgWith([]int{3, 2, 2, 1, 1, 1, 0, 0, 0, 1}, 512, true)
	src, _, id := newReqShaper(cfg)
	drive(src, id, 4096)

	// Seed the violation: a granted credit vanishes from the ledger.
	src.bins.led.granted--
	if err := src.CheckConservation(); err == nil {
		t.Fatal("seeded ledger imbalance not detected pre-snapshot")
	}

	dst, _, _ := newReqShaper(cfg)
	if err := dst.Restore(ckpt.NewDecoder(snap(src))); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := dst.CheckConservation(); err == nil {
		t.Fatal("restore laundered the ledger imbalance — violation lost")
	}
}

// TestRestoreRejectsWrongBinCount: a snapshot from a differently shaped
// shaper fails with ErrCorrupt-matching mismatch, not a panic.
func TestRestoreRejectsWrongBinCount(t *testing.T) {
	cfg := cfgWith([]int{3, 2, 2, 1, 1, 1, 0, 0, 0, 1}, 512, true)
	src, _, id := newReqShaper(cfg)
	drive(src, id, 1024)

	small := cfgWith([]int{1, 1}, 512, true)
	small.Binning = src.Config().Binning // keep binning valid but credits shorter
	small.Binning.Edges = small.Binning.Edges[:2]
	dst, _, _ := newReqShaper(small)
	if err := dst.Restore(ckpt.NewDecoder(snap(src))); err == nil {
		t.Fatal("restore across bin counts succeeded")
	}
}
