package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"fuse/internal/mem"
)

// Record/replay turns a generated instruction stream into an artefact: a
// Recorder wraps any Workload and captures every instruction each SM's source
// produces; the resulting Trace serialises to disk and replays bit-identically
// — the same Instruction values in the same order — through a replay
// Workload. Recording a run and replaying it under the same GPU configuration
// and options therefore reproduces the simulation exactly, which makes traces
// the exchange format for workloads that no synthetic profile generates
// (and, later, for streams converted from real GPGPU-Sim traces).

// traceMagic identifies (and versions) the on-disk trace format.
const traceMagic = "FUSETRACE/1\n"

// TraceMeta describes how a trace was recorded: enough for fusesim -replay to
// rebuild the exact simulation the recording run executed.
type TraceMeta struct {
	// Workload is the recorded workload's name; the replay workload reports
	// the same name so tables render identically.
	Workload string `json:"workload"`
	// Kind is the L1D configuration name of the recording run.
	Kind string `json:"kind,omitempty"`
	// Volta records whether the Volta-class GPU model was used.
	Volta bool `json:"volta,omitempty"`
	// Backend is the memory backend override ("" = the GPU model's default).
	Backend string `json:"backend,omitempty"`
	// InstructionsPerWarp, SMs and Seed are the recording run's options.
	InstructionsPerWarp uint64 `json:"instructionsPerWarp"`
	SMs                 int    `json:"sms"`
	Seed                uint64 `json:"seed"`
}

// TraceStep is one recorded instruction, tagged with the warp that asked for
// it so replay can detect a schedule divergence.
type TraceStep struct {
	Warp int32
	Ins  Instruction
}

// Trace is a recorded instruction stream: per-SM step sequences plus the
// recording metadata.
type Trace struct {
	Meta TraceMeta
	// Steps[sm] is the instruction sequence SM sm consumed, in order.
	Steps [][]TraceStep
}

// Recorder is a Workload decorator: it delegates everything to the wrapped
// workload but captures each SM's generated stream. Use it with a direct
// simulator run (not through the result store — a store hit would skip
// execution and record nothing), then read the Trace back.
type Recorder struct {
	inner Workload

	mu    sync.Mutex
	steps map[int]*[]TraceStep
}

// NewRecorder wraps a workload for recording.
func NewRecorder(w Workload) *Recorder {
	return &Recorder{inner: w, steps: make(map[int]*[]TraceStep)}
}

// Name implements Workload.
func (r *Recorder) Name() string { return r.inner.Name() }

// Validate implements Workload.
func (r *Recorder) Validate() error { return r.inner.Validate() }

// KeyMaterial implements Workload: recording is passive, so the key material
// is the wrapped workload's (the simulation outcome is identical).
func (r *Recorder) KeyMaterial() (json.RawMessage, error) { return r.inner.KeyMaterial() }

// NewSource implements Workload, interposing the capture.
func (r *Recorder) NewSource(sm int, seed uint64) (Source, error) {
	src, err := r.inner.NewSource(sm, seed)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.steps[sm]; ok {
		return nil, fmt.Errorf("trace: recorder: SM %d already has a source", sm)
	}
	steps := &[]TraceStep{}
	r.steps[sm] = steps
	return &recordingSource{src: src, out: steps}, nil
}

// Trace assembles the captured streams (call it after the run completes).
func (r *Recorder) Trace(meta TraceMeta) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	maxSM := -1
	//fuselint:ordered max reduction, order-insensitive
	for sm := range r.steps {
		if sm > maxSM {
			maxSM = sm
		}
	}
	t := &Trace{Meta: meta, Steps: make([][]TraceStep, maxSM+1)}
	if meta.Workload == "" {
		t.Meta.Workload = r.inner.Name()
	}
	//fuselint:ordered writes to disjoint index-addressed slots, order-insensitive
	for sm, steps := range r.steps {
		t.Steps[sm] = *steps
	}
	return t
}

// recordingSource passes Next through and appends each instruction to the
// recorder's per-SM slice. Sources are per-SM and the simulator is
// single-threaded per run, so the append needs no locking.
type recordingSource struct {
	src Source
	out *[]TraceStep
}

func (s *recordingSource) Next(warp int) Instruction {
	ins := s.src.Next(warp)
	*s.out = append(*s.out, TraceStep{Warp: int32(warp), Ins: ins})
	return ins
}

func (s *recordingSource) Generated() uint64      { return s.src.Generated() }
func (s *recordingSource) MemoryAccesses() uint64 { return s.src.MemoryAccesses() }

// ReplayWorkload plays a Trace back. Its sources return the recorded
// instructions in recorded order, so a simulation under the trace's original
// configuration consumes a bit-identical stream and produces a bit-identical
// result.
type ReplayWorkload struct {
	trace *Trace
	// digest is the SHA-256 of the serialised step stream; it makes the store
	// key material content-addressed (two different recordings under the same
	// name cannot alias).
	digest string

	// sources tracks every source handed out, so Diverged can report whether
	// the replaying run followed the recording schedule.
	mu      sync.Mutex
	sources []*replaySource
}

// Workload wraps the trace as a runnable (replay) workload.
func (t *Trace) Workload() *ReplayWorkload {
	return &ReplayWorkload{trace: t, digest: t.stepsDigest()}
}

// Trace exposes the underlying trace.
func (w *ReplayWorkload) Trace() *Trace { return w.trace }

// Name implements Workload.
func (w *ReplayWorkload) Name() string { return w.trace.Meta.Workload }

// Validate implements Workload.
func (w *ReplayWorkload) Validate() error {
	if w.trace == nil {
		return fmt.Errorf("trace: replay workload without a trace")
	}
	if w.trace.Meta.Workload == "" {
		return fmt.Errorf("trace: replay trace without a workload name")
	}
	if len(w.trace.Steps) == 0 {
		return fmt.Errorf("trace: %s: replay trace records no SMs", w.trace.Meta.Workload)
	}
	return nil
}

// replayKeyMaterial is the canonical key encoding of a replayed workload.
type replayKeyMaterial struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	SHA256   string `json:"sha256"`
}

// KeyMaterial implements Workload.
func (w *ReplayWorkload) KeyMaterial() (json.RawMessage, error) {
	return json.Marshal(replayKeyMaterial{
		Kind:     "replay",
		Workload: w.trace.Meta.Workload,
		Seed:     w.trace.Meta.Seed,
		SHA256:   w.digest,
	})
}

// NewSource implements Workload. The seed is ignored: a trace replays as
// recorded.
func (w *ReplayWorkload) NewSource(sm int, seed uint64) (Source, error) {
	if sm < 0 || sm >= len(w.trace.Steps) {
		return nil, fmt.Errorf("trace: %s: trace records %d SMs, SM %d requested (replay needs the recording run's -sms)",
			w.trace.Meta.Workload, len(w.trace.Steps), sm)
	}
	src := &replaySource{steps: w.trace.Steps[sm]}
	w.mu.Lock()
	w.sources = append(w.sources, src)
	w.mu.Unlock()
	return src, nil
}

// Diverged returns the total number of replay steps, across every source
// this workload handed out, that did not match the recording schedule (warp
// mismatch or exhausted trace). A non-zero count after a run means the
// replaying simulation was configured differently from the recording one and
// its results are not a faithful reproduction — callers should surface it.
func (w *ReplayWorkload) Diverged() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total uint64
	for _, s := range w.sources {
		total += s.Diverged()
	}
	return total
}

// replaySource returns the recorded steps in order. A consumer that asks for
// more instructions than were recorded, or from a different warp sequence,
// has diverged from the recording schedule; the source keeps the run alive
// (padding with ALU no-ops) and counts the divergence for diagnostics.
type replaySource struct {
	steps     []TraceStep
	pos       int
	generated uint64
	mem       uint64
	diverged  uint64
}

func (s *replaySource) Next(warp int) Instruction {
	if s.pos >= len(s.steps) {
		s.diverged++
		s.generated++
		return Instruction{PC: 0x1, IsMem: false}
	}
	step := s.steps[s.pos]
	s.pos++
	if int(step.Warp) != warp {
		s.diverged++
	}
	s.generated++
	if step.Ins.IsMem {
		s.mem++
	}
	return step.Ins
}

func (s *replaySource) Generated() uint64      { return s.generated }
func (s *replaySource) MemoryAccesses() uint64 { return s.mem }

// Diverged returns the number of replay steps that did not match the
// recording schedule (warp mismatch or exhausted trace).
func (s *replaySource) Diverged() uint64 { return s.diverged }

// stepEncoding is the fixed per-step wire size: warp (4) + pc (8) + addr (8)
// + flags (1).
const stepEncoding = 4 + 8 + 8 + 1

// stepsDigest hashes the serialised step stream (the content identity of the
// recording, independent of metadata).
func (t *Trace) stepsDigest() string {
	h := sha256.New()
	var buf [stepEncoding]byte
	for _, steps := range t.Steps {
		for _, st := range steps {
			encodeStep(buf[:], st)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func encodeStep(buf []byte, st TraceStep) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(st.Warp))
	binary.LittleEndian.PutUint64(buf[4:], st.Ins.PC)
	binary.LittleEndian.PutUint64(buf[12:], st.Ins.Addr)
	flags := byte(st.Ins.Kind) & 0x7f
	if st.Ins.IsMem {
		flags |= 0x80
	}
	buf[20] = flags
}

func decodeStep(buf []byte) TraceStep {
	return TraceStep{
		Warp: int32(binary.LittleEndian.Uint32(buf[0:])),
		Ins: Instruction{
			PC:    binary.LittleEndian.Uint64(buf[4:]),
			Addr:  binary.LittleEndian.Uint64(buf[12:]),
			IsMem: buf[20]&0x80 != 0,
			Kind:  mem.AccessKind(buf[20] & 0x7f),
		},
	}
}

// traceHeader is the JSON header following the magic line: the metadata plus
// the per-SM step counts the binary section is decoded against.
type traceHeader struct {
	Meta  TraceMeta `json:"meta"`
	Steps []int     `json:"steps"`
}

// Write serialises the trace: a magic/version line, one JSON header line,
// then the fixed-width binary step records SM by SM. The encoding is
// deterministic — the same trace always writes the same bytes.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return fmt.Errorf("trace: writing trace: %w", err)
	}
	hdr := traceHeader{Meta: t.Meta, Steps: make([]int, len(t.Steps))}
	for sm, steps := range t.Steps {
		hdr.Steps[sm] = len(steps)
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("trace: writing trace header: %w", err)
	}
	hdrBytes = append(hdrBytes, '\n')
	if _, err := bw.Write(hdrBytes); err != nil {
		return fmt.Errorf("trace: writing trace: %w", err)
	}
	var buf [stepEncoding]byte
	for _, steps := range t.Steps {
		for _, st := range steps {
			encodeStep(buf[:], st)
			if _, err := bw.Write(buf[:]); err != nil {
				return fmt.Errorf("trace: writing trace: %w", err)
			}
		}
	}
	return bw.Flush()
}

// WriteFile serialises the trace to a file.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace parses a serialised trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading trace: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: not a FUSE trace file (bad magic)")
	}
	hdrLine, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("trace: reading trace header: %w", err)
	}
	var hdr traceHeader
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return nil, fmt.Errorf("trace: parsing trace header: %w", err)
	}
	t := &Trace{Meta: hdr.Meta, Steps: make([][]TraceStep, len(hdr.Steps))}
	var buf [stepEncoding]byte
	for sm, n := range hdr.Steps {
		if n < 0 {
			return nil, fmt.Errorf("trace: corrupt trace header (negative step count)")
		}
		// Grow incrementally with a capped initial capacity instead of
		// trusting the header's count: a corrupt (or crafted) count then
		// fails as a truncated read once the input runs out, rather than
		// attempting one enormous allocation up front.
		steps := make([]TraceStep, 0, min(n, 1<<20))
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, fmt.Errorf("trace: truncated trace (SM %d, step %d): %w", sm, i, err)
			}
			steps = append(steps, decodeStep(buf[:]))
		}
		t.Steps[sm] = steps
	}
	return t, nil
}

// LoadTrace reads a serialised trace from a file.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}
