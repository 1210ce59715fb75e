package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"camouflage/internal/ckpt"
	"camouflage/internal/iofault"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// ConfigHash returns the canonical hash of a configuration: the first 8
// bytes of SHA-256 over its JSON form. JSON marshaling sorts map keys, so
// the hash is deterministic, and every field that shapes simulation
// behaviour (scheme, shaper bins, timing, seed) is covered. A checkpoint
// only restores into a system built from a config with the same hash.
func ConfigHash(cfg Config) uint64 {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config is plain data (numbers, slices, string-free maps);
		// Marshal cannot fail on it.
		panic(fmt.Sprintf("core: config not marshalable: %v", err))
	}
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8])
}

// snapshot appends the complete mutable state of the system — every
// component in the fixed assembly order — plus caller-supplied extras
// (e.g. a CLI's latency recorders, so resumed reports are byte-identical).
// The ID counter is read through Last, which first settles the sleeping
// shapers that still owe it burns.
func (s *System) snapshot(e *ckpt.Encoder, extras []ckpt.Stater) {
	e.U64(s.ids.Last())
	s.Kernel.Snapshot(e)
	e.Len(len(s.Cores))
	for _, c := range s.Cores {
		c.Snapshot(e)
	}
	e.Len(len(s.ReqShapers))
	for _, sh := range s.ReqShapers {
		e.Bool(sh != nil)
		if sh != nil {
			sh.Snapshot(e)
		}
	}
	e.Len(len(s.RespShapers))
	for _, sh := range s.RespShapers {
		e.Bool(sh != nil)
		if sh != nil {
			sh.Snapshot(e)
		}
	}
	s.ReqNet.Snapshot(e)
	s.RespNet.Snapshot(e)
	e.Len(len(s.Channels))
	for i := range s.Channels {
		s.Channels[i].Snapshot(e)
		s.MCs[i].Snapshot(e)
	}
	e.Bool(s.Monitor != nil)
	if s.Monitor != nil {
		s.Monitor.Snapshot(e)
	}
	e.Bool(s.inj != nil)
	if s.inj != nil {
		s.inj.Snapshot(e)
	}
	e.Len(len(extras))
	for _, x := range extras {
		x.Snapshot(e)
	}
}

// restoreState reads a payload produced by snapshot back into this
// system. The system must have been assembled from the same configuration
// (NewSystem, plus the same EnableChecks / InjectFaults calls) so every
// component lines up; any shape disagreement returns an
// ErrCorrupt-matching error and the system must then be considered
// unusable (restore is not transactional).
func (s *System) restoreState(payload []byte, extras []ckpt.Stater) error {
	d := ckpt.NewDecoder(payload)
	s.ids.Set(d.U64())
	if err := s.Kernel.Restore(d); err != nil {
		return err
	}
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(s.Cores) {
		return ckpt.Mismatch("core: %d cores, checkpoint has %d", len(s.Cores), n)
	}
	for _, c := range s.Cores {
		if err := c.Restore(d); err != nil {
			return err
		}
	}
	if err := restoreShaperSlice(d, "request", len(s.ReqShapers), func(i int) ckpt.Stater {
		if s.ReqShapers[i] == nil {
			return nil
		}
		return s.ReqShapers[i]
	}); err != nil {
		return err
	}
	if err := restoreShaperSlice(d, "response", len(s.RespShapers), func(i int) ckpt.Stater {
		if s.RespShapers[i] == nil {
			return nil
		}
		return s.RespShapers[i]
	}); err != nil {
		return err
	}
	if err := s.ReqNet.Restore(d); err != nil {
		return err
	}
	if err := s.RespNet.Restore(d); err != nil {
		return err
	}
	n = d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(s.Channels) {
		return ckpt.Mismatch("core: %d DRAM channels, checkpoint has %d", len(s.Channels), n)
	}
	for i := range s.Channels {
		if err := s.Channels[i].Restore(d); err != nil {
			return err
		}
		if err := s.MCs[i].Restore(d); err != nil {
			return err
		}
	}
	if err := restoreOptional(d, "invariant monitor", s.Monitor != nil, s.Monitor); err != nil {
		return err
	}
	if err := restoreOptional(d, "fault injector", s.inj != nil, s.inj); err != nil {
		return err
	}
	n = d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(extras) {
		return ckpt.Mismatch("core: caller passed %d extra staters, checkpoint has %d", len(extras), n)
	}
	for _, x := range extras {
		if err := x.Restore(d); err != nil {
			return err
		}
	}
	if err := d.Done(); err != nil {
		return err
	}
	s.relinkMSHRs()
	return nil
}

// relinkMSHRs restores MSHR/request aliasing after a checkpoint load.
// Snapshot writes the MSHR's in-flight request by value, so a plain
// restore leaves each cache aliasing a private placeholder while the
// real object sits somewhere in the pipeline. Walk every request holder,
// index the live objects by ID, and point the MSHRs back at them; the
// displaced placeholders return to the pool.
func (s *System) relinkMSHRs() {
	live := make(map[uint64]*mem.Request)
	collect := func(r *mem.Request) { live[r.ID] = r }
	for _, c := range s.Cores {
		c.ForEachRequest(collect)
	}
	for _, sh := range s.ReqShapers {
		if sh != nil {
			sh.ForEachRequest(collect)
		}
	}
	s.ReqNet.ForEachRequest(collect)
	for _, mc := range s.MCs {
		mc.ForEachRequest(collect)
	}
	for _, sh := range s.RespShapers {
		if sh != nil {
			sh.ForEachRequest(collect)
		}
	}
	s.RespNet.ForEachRequest(collect)
	for _, c := range s.Cores {
		c.Cache().RelinkMSHRs(live)
	}
}

// restoreShaperSlice reads one presence-flagged shaper slice, verifying
// the live nil pattern (which is config-derived) matches the checkpoint.
func restoreShaperSlice(d *ckpt.Decoder, kind string, live int, at func(int) ckpt.Stater) error {
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if n != live {
		return ckpt.Mismatch("core: %d %s shaper slots, checkpoint has %d", live, kind, n)
	}
	for i := 0; i < n; i++ {
		has := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		sh := at(i)
		if has != (sh != nil) {
			return ckpt.Mismatch("core: %s shaper presence mismatch at core %d (checkpoint %v, live %v)", kind, i, has, sh != nil)
		}
		if sh != nil {
			if err := sh.Restore(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreOptional reads one presence-flagged optional component. The
// isStater interface dance keeps typed-nil pointers out of st.
func restoreOptional(d *ckpt.Decoder, what string, live bool, st ckpt.Stater) error {
	has := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if has != live {
		return ckpt.Mismatch("core: %s presence mismatch (checkpoint %v, live %v)", what, has, live)
	}
	if has {
		return st.Restore(d)
	}
	return nil
}

// CheckpointBytes captures the complete system state as a checkpoint
// header and payload. Pending kernel events are typed plain data and ride
// along in the kernel's snapshot, so a checkpoint may be taken at any
// supervision boundary. extras are caller-owned staters serialized after
// the system — pass the same set, in the same order, to RestoreState.
func (s *System) CheckpointBytes(extras ...ckpt.Stater) (ckpt.Header, []byte, error) {
	var e ckpt.Encoder
	s.snapshot(&e, extras)
	h := ckpt.Header{
		Version:    ckpt.Version,
		ConfigHash: ConfigHash(s.Config),
		Cycle:      uint64(s.Kernel.Now()),
		Seed:       s.Config.Seed,
	}
	return h, e.Bytes(), nil
}

// Checkpoint writes a complete, checksummed checkpoint of the system to
// w. For crash-safe on-disk checkpoints prefer SetCheckpointPolicy (or
// ckpt.Manager), which write via temp-file + rename.
func (s *System) Checkpoint(w io.Writer, extras ...ckpt.Stater) error {
	h, payload, err := s.CheckpointBytes(extras...)
	if err != nil {
		return err
	}
	_, err = w.Write(ckpt.Encode(h, payload))
	return err
}

// RestoreState loads a previously captured checkpoint into this freshly
// assembled system. The header's config hash must match this system's
// configuration; on any mismatch or payload corruption an
// ErrCorrupt-matching error is returned and the system must be discarded.
func (s *System) RestoreState(h ckpt.Header, payload []byte, extras ...ckpt.Stater) error {
	if want := ConfigHash(s.Config); h.ConfigHash != want {
		return ckpt.Mismatch("core: checkpoint config hash %016x, live config %016x", h.ConfigHash, want)
	}
	if err := s.restoreState(payload, extras); err != nil {
		return err
	}
	if got := uint64(s.Kernel.Now()); got != h.Cycle {
		return ckpt.Mismatch("core: restored kernel clock %d disagrees with header cycle %d", got, h.Cycle)
	}
	return nil
}

// NewSystemFromCheckpoint assembles a system from cfg and sources, then
// restores the checkpoint read from r into it. configure, when non-nil,
// runs between assembly and restore — it is where the caller re-applies
// EnableChecks, InjectFaults or SetCheckpointPolicy so the live system's
// shape matches the snapshotted one (a checkpoint taken with checks
// enabled only restores into a system with checks enabled).
func NewSystemFromCheckpoint(r io.Reader, cfg Config, sources []trace.Source, configure func(*System) error, extras ...ckpt.Stater) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	h, payload, err := ckpt.Decode(data)
	if err != nil {
		return nil, err
	}
	s, err := NewSystem(cfg, sources)
	if err != nil {
		return nil, err
	}
	if configure != nil {
		if err := configure(s); err != nil {
			return nil, err
		}
	}
	if err := s.RestoreState(h, payload, extras...); err != nil {
		return nil, err
	}
	return s, nil
}

// DefaultCheckpointKeep is the retention bound when CheckpointPolicy.Keep
// is zero: the finished file plus one older fallback.
const DefaultCheckpointKeep = 2

// CheckpointPolicy configures automatic crash-safe checkpoints on the
// supervised run path.
type CheckpointPolicy struct {
	// Dir is the checkpoint directory (required).
	Dir string
	// Every is the minimum simulated-cycle spacing between automatic
	// checkpoints (required). Saves land on supervision-stride boundaries,
	// so the effective spacing is Every rounded up to SuperviseStride.
	Every sim.Cycle
	// Keep bounds retention; 0 selects DefaultCheckpointKeep.
	Keep int
	// Extras are serialized into (and restored from) every checkpoint
	// after the system state — a CLI's latency recorders, for example.
	Extras []ckpt.Stater
	// FS, if set, routes all checkpoint file I/O through it (the chaos
	// layer installs an iofault.Injector here); nil means the real
	// filesystem.
	FS iofault.FS
	// Warn receives one-line degradation/recovery notices; nil selects
	// os.Stderr.
	Warn io.Writer
}

// ckptPolicy is the armed form of a CheckpointPolicy, including its
// degradation state. All fields are touched only from the simulation
// goroutine (supervised run path and Scope gauge closures), so none
// need locking.
type ckptPolicy struct {
	mgr       *ckpt.Manager
	every     sim.Cycle
	extras    []ckpt.Stater
	warn      io.Writer
	lastSaved sim.Cycle

	// Degradation state: failStreak counts consecutive failed saves
	// (drives the exponential backoff), retryAt is the next attempt
	// cycle while degraded, saveFails the lifetime failure count, and
	// mem the bounded in-memory retention (oldest first) holding the
	// checkpoints the disk refused.
	degraded   bool
	failStreak int
	retryAt    sim.Cycle
	saveFails  uint64
	memKeep    int
	mem        []memCkpt
}

// memCkpt is one in-memory retained checkpoint.
type memCkpt struct {
	h       ckpt.Header
	payload []byte
}

// retain appends one checkpoint to the in-memory ring, evicting the
// oldest past the retention bound.
func (p *ckptPolicy) retain(h ckpt.Header, payload []byte) {
	p.mem = append(p.mem, memCkpt{h: h, payload: payload})
	if n := len(p.mem); n > p.memKeep {
		p.mem = append(p.mem[:0:0], p.mem[n-p.memKeep:]...)
	}
}

// warnf writes one degradation-lifecycle notice to the policy's Warn
// writer (stderr by default).
func (p *ckptPolicy) warnf(format string, args ...any) {
	w := p.warn
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, format+"\n", args...)
}

// SetCheckpointPolicy arms (or, with an empty Dir or zero Every, disarms)
// automatic checkpointing: the supervised run path saves a checkpoint
// whenever Every simulated cycles have passed since the last save, and
// best-effort on cancellation and wall-clock-deadline aborts, so a
// SIGTERM'd or timed-out run leaves a fresh resume point. Files are
// written crash-safely and pruned to the retention bound.
func (s *System) SetCheckpointPolicy(p CheckpointPolicy) {
	if p.Dir == "" || p.Every <= 0 {
		s.ckpt = nil
		return
	}
	keep := p.Keep
	if keep == 0 {
		keep = DefaultCheckpointKeep
	}
	s.ckpt = &ckptPolicy{
		mgr:       ckpt.NewManager(p.Dir, keep).SetFS(p.FS),
		every:     p.Every,
		extras:    p.Extras,
		warn:      p.Warn,
		lastSaved: s.Kernel.Now(),
		memKeep:   keep,
	}
}

// CheckpointHealth reports the armed policy's degradation state: whether
// disk saves are currently failing (and the run is riding on in-memory
// retention), plus the lifetime count of failed save attempts. A system
// with no policy armed is healthy by definition.
func (s *System) CheckpointHealth() (degraded bool, saveFailures uint64) {
	if s.ckpt == nil {
		return false, 0
	}
	return s.ckpt.degraded, s.ckpt.saveFails
}

// MemCheckpoint returns the newest in-memory retained checkpoint — the
// fallback the degradation path keeps when the disk refuses saves — or
// ok=false when none is held.
func (s *System) MemCheckpoint() (ckpt.Header, []byte, bool) {
	if s.ckpt == nil || len(s.ckpt.mem) == 0 {
		return ckpt.Header{}, nil, false
	}
	last := s.ckpt.mem[len(s.ckpt.mem)-1]
	return last.h, last.payload, true
}

// CheckpointManager exposes the armed policy's retention manager (nil
// when no policy is set), so callers can locate the latest file.
func (s *System) CheckpointManager() *ckpt.Manager {
	if s.ckpt == nil {
		return nil
	}
	return s.ckpt.mgr
}

// SaveCheckpoint immediately writes one checkpoint through the armed
// policy and returns its path. Success clears any degradation episode
// (the disk demonstrably works again); failure feeds the same
// degradation bookkeeping as the automatic path.
func (s *System) SaveCheckpoint() (string, error) {
	if s.ckpt == nil {
		return "", fmt.Errorf("core: no checkpoint policy set")
	}
	h, payload, err := s.CheckpointBytes(s.ckpt.extras...)
	if err != nil {
		return "", err
	}
	path, err := s.ckpt.mgr.Save(h, payload)
	if err != nil {
		s.ckpt.noteSaveFailure(s.Kernel.Now(), h, payload, err)
		return "", err
	}
	s.ckpt.noteSaveSuccess(s.Kernel.Now())
	return path, nil
}

// noteSaveFailure records one failed disk save: the checkpoint moves to
// bounded in-memory retention, the retry schedule backs off
// exponentially (every << streak, capped at 2^6), and the transition
// into the degraded episode emits exactly one notice.
func (p *ckptPolicy) noteSaveFailure(now sim.Cycle, h ckpt.Header, payload []byte, cause error) {
	p.saveFails++
	p.retain(h, payload)
	p.retryAt = now + p.every<<min(p.failStreak, 6)
	p.failStreak++
	if !p.degraded {
		p.degraded = true
		p.warnf("core: checkpoint save failing at cycle %d, degrading to in-memory retention (run continues): %v", now, cause)
	}
}

// noteSaveSuccess records one successful disk save, ending any
// degradation episode: the newest state is durable again, so the
// in-memory retention is released.
func (p *ckptPolicy) noteSaveSuccess(now sim.Cycle) {
	p.lastSaved = now
	if p.degraded {
		p.degraded = false
		p.failStreak = 0
		p.mem = nil
		p.warnf("core: checkpoint saves recovered at cycle %d after %d failed attempt(s)", now, p.saveFails)
	}
}

// maybeCheckpoint saves when the policy spacing has elapsed.
//
// Degradation policy: a failed save must never abort or stall the run —
// an infrastructure fault costs durability, not simulation progress, and
// the simulated state is entirely unaffected (outputs stay byte-identical
// to an undisturbed run). On failure the checkpoint is retained in a
// bounded in-memory ring (MemCheckpoint exposes the newest), save
// attempts back off exponentially so a dead disk is not hammered every
// stride, one notice per episode lands on Warn/stderr, and the
// ckpt.degraded / ckpt.save_failures / ckpt.mem_retained gauges report
// the state. The first successful save ends the episode.
func (s *System) maybeCheckpoint() {
	p := s.ckpt
	if p == nil {
		return
	}
	now := s.Kernel.Now()
	if p.degraded {
		if now < p.retryAt {
			return
		}
	} else if now-p.lastSaved < p.every {
		return
	}
	h, payload, err := s.CheckpointBytes(p.extras...)
	if err != nil {
		// CheckpointBytes cannot currently fail (typed events serialize
		// with the kernel), but keep the skip-and-retry shape in case a
		// future serializer grows a refusal condition.
		return
	}
	if _, err := p.mgr.Save(h, payload); err != nil {
		p.noteSaveFailure(now, h, payload, err)
		return
	}
	p.noteSaveSuccess(now)
}

// checkpointOnAbort is the best-effort save on the cancellation and
// deadline return paths. Its error is deliberately dropped: the abort
// cause is the error the caller needs, and an older valid checkpoint, the
// in-memory retention (which SaveCheckpoint fed on failure), or a clean
// restart remains available either way.
func (s *System) checkpointOnAbort() {
	if s.ckpt == nil {
		return
	}
	_, _ = s.SaveCheckpoint()
}
