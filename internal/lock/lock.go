// Package lock implements the paper's lock mechanisms for critical-section
// protection on the heterogeneous platform:
//
//   - an uncached test-and-set lock variable in shared memory (the paper's
//     default: "Lock variables are not cached in all simulations");
//   - the 1-bit hardware lock register on the bus (the SoC Lock Cache of
//     paper ref. [17]), the second remedy for the hardware-deadlock problem;
//   - Lamport's Bakery algorithm over uncached plain loads/stores, the
//     pure-software remedy (paper ref. [18]);
//   - a *cacheable* test-and-set lock, used only to demonstrate the
//     hardware-deadlock problem of the paper's Figure 4.
//
// A lock acquisition is a small state machine (Stepper) that the CPU model
// drives one memory operation at a time, so spin traffic occupies the bus
// exactly as real polling would.
//
// The paper's microbenchmarks acquire the lock in strict alternation ("each
// task acquiring the lock alternatively"); Manager implements that with an
// uncached turn word consulted before the lock proper.
package lock

import "fmt"

// MemOpKind classifies a lock-protocol memory operation.
type MemOpKind uint8

const (
	// ReadUncached is a single uncached word load.
	ReadUncached MemOpKind = iota
	// WriteUncached is a single uncached word store.
	WriteUncached
	// RMWUncached is an atomic uncached test-and-set (returns the old
	// value, stores Val).
	RMWUncached
	// ReadCached is a load through the data cache (deadlock demo only).
	ReadCached
	// WriteCached is a store through the data cache (deadlock demo only).
	WriteCached
	// Spin is a pure delay of N CPU cycles (poll-loop back-off).
	Spin
)

// MemOp is one step of a lock protocol.
type MemOp struct {
	Kind MemOpKind
	Addr uint32
	Val  uint32
	N    int
}

// Stepper drives one acquisition or release.  The CPU calls Step, performs
// the returned operation, and calls Step again with the value an operation
// of read kind produced (0 for writes/spins).  done=true means the sequence
// has finished and op must not be executed.
type Stepper interface {
	Step(lastVal uint32) (op MemOp, done bool)
}

// Kind selects a lock mechanism.
type Kind uint8

const (
	// UncachedTAS is a test-and-set word in uncached shared memory.
	UncachedTAS Kind = iota
	// HardwareRegister is the 1-bit lock register bus device.
	HardwareRegister
	// Bakery is Lamport's bakery algorithm over uncached loads/stores.
	Bakery
	// CachedTAS is a test-and-set word in *cacheable* shared memory.  It
	// exists to reproduce the hardware-deadlock problem; real systems must
	// not use it on PF1/PF2 platforms.
	CachedTAS
	// Peterson is Peterson's two-task algorithm over uncached plain
	// loads/stores — like Bakery, a pure-software lock needing no atomic
	// primitive, but cheaper when exactly two processors contend (the
	// paper's dual-processor platforms).
	Peterson
)

// String names the lock kind.
func (k Kind) String() string {
	switch k {
	case UncachedTAS:
		return "uncached-tas"
	case HardwareRegister:
		return "hw-register"
	case Bakery:
		return "bakery"
	case CachedTAS:
		return "cached-tas"
	case Peterson:
		return "peterson"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Layout fixes where one lock's protocol variables live.  The platform
// supplies addresses in the appropriate regions (uncached lock area,
// hardware device aperture, cacheable shared area for CachedTAS).
type Layout struct {
	// LockWord is the test-and-set word (UncachedTAS, CachedTAS) or the
	// device register address (HardwareRegister).
	LockWord uint32
	// TurnWord is the uncached alternation word.
	TurnWord uint32
	// Choosing and Number are the per-task bakery arrays (uncached).
	Choosing []uint32
	Number   []uint32
}

// Config parameterises a Manager.
type Config struct {
	Kind  Kind
	Tasks int
	// Layouts holds one Layout per lock id.  Layout (singular) is a
	// convenience for the common single-lock case; exactly one of the two
	// may be set.
	Layouts []Layout
	Layout  Layout
	// Alternate enforces the paper's strict round-robin acquisition order
	// via the turn word.  It must be false when only one task contends
	// (the best-case scenario), or the turn never comes back around.
	Alternate bool
	// SpinDelay is the CPU-cycle back-off between polls (loop overhead).
	SpinDelay int
}

// Manager creates steppers for a particular lock configuration.
type Manager struct {
	cfg Config
	// tasks holds each task's reusable steppers: a task drives one lock
	// operation at a time, so Acquire and Release reset and hand out the
	// same stepper every time instead of allocating one per critical
	// section.
	tasks []taskSteppers
}

// taskSteppers is one task's stepper set: one acquire stepper per lock
// kind (only the configured kind's is used) and the release sequence.
type taskSteppers struct {
	tas      tasAcquire
	cached   cachedTASAcquire
	bakery   bakeryAcquire
	peterson petersonAcquire
	release  seqStepper
}

// NewManager validates cfg and returns a manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("lock: need at least one task, got %d", cfg.Tasks)
	}
	if len(cfg.Layouts) == 0 {
		cfg.Layouts = []Layout{cfg.Layout}
	}
	// The hardware lock register is a single bit: the system can have only
	// one lock, as the paper notes.
	if cfg.Kind == HardwareRegister && len(cfg.Layouts) > 1 {
		return nil, fmt.Errorf("lock: the hardware lock register supports exactly one lock, got %d", len(cfg.Layouts))
	}
	if cfg.Kind == Bakery {
		for i, lay := range cfg.Layouts {
			if len(lay.Choosing) < cfg.Tasks || len(lay.Number) < cfg.Tasks {
				return nil, fmt.Errorf("lock %d: bakery arrays smaller than task count %d", i, cfg.Tasks)
			}
		}
	}
	if cfg.Kind == Peterson {
		if cfg.Tasks != 2 {
			return nil, fmt.Errorf("lock: Peterson's algorithm is for exactly two tasks, got %d", cfg.Tasks)
		}
		for i, lay := range cfg.Layouts {
			if len(lay.Choosing) < 2 {
				return nil, fmt.Errorf("lock %d: Peterson needs the two flag words (Layout.Choosing)", i)
			}
		}
	}
	if cfg.SpinDelay < 0 {
		return nil, fmt.Errorf("lock: negative spin delay")
	}
	return &Manager{cfg: cfg, tasks: make([]taskSteppers, cfg.Tasks)}, nil
}

// Locks returns the number of lock ids the manager serves.
func (m *Manager) Locks() int { return len(m.cfg.Layouts) }

// Kind returns the configured mechanism.
func (m *Manager) Kind() Kind { return m.cfg.Kind }

func (m *Manager) layout(id int) *Layout {
	if id < 0 || id >= len(m.cfg.Layouts) {
		panic(fmt.Sprintf("lock: lock id %d out of range (have %d locks)", id, len(m.cfg.Layouts)))
	}
	return &m.cfg.Layouts[id]
}

func (m *Manager) steppers(task int) *taskSteppers {
	if task < 0 || task >= m.cfg.Tasks {
		panic(fmt.Sprintf("lock: task %d out of range", task))
	}
	return &m.tasks[task]
}

// Acquire returns a stepper that obtains lock id for task.  The stepper is
// the task's own and is reset by the task's next Acquire, so a task must
// finish one acquisition before it starts the next.
func (m *Manager) Acquire(task, id int) Stepper {
	st := m.steppers(task)
	lay := m.layout(id)
	switch m.cfg.Kind {
	case UncachedTAS, HardwareRegister:
		// The hardware register's aperture is uncached by construction;
		// its RMW is a single-cycle device access.
		st.tas = tasAcquire{cfg: &m.cfg, lay: lay, task: task, kindRead: ReadUncached, kindRMW: RMWUncached}
		return &st.tas
	case CachedTAS:
		st.cached = cachedTASAcquire{cfg: &m.cfg, lay: lay, task: task}
		return &st.cached
	case Bakery:
		st.bakery = bakeryAcquire{cfg: &m.cfg, lay: lay, task: task}
		return &st.bakery
	case Peterson:
		st.peterson = petersonAcquire{cfg: &m.cfg, lay: lay, task: task}
		return &st.peterson
	default:
		panic(fmt.Sprintf("lock: unknown kind %v", m.cfg.Kind))
	}
}

// Release returns a stepper that releases lock id held by task.  Like
// Acquire's, it is the task's own and is reset by the task's next Release.
func (m *Manager) Release(task, id int) Stepper {
	s := &m.steppers(task).release
	lay := m.layout(id)
	switch m.cfg.Kind {
	case UncachedTAS, HardwareRegister:
		s.reset(MemOp{Kind: WriteUncached, Addr: lay.LockWord})
	case CachedTAS:
		s.reset(MemOp{Kind: WriteCached, Addr: lay.LockWord})
	case Bakery:
		s.reset(MemOp{Kind: WriteUncached, Addr: lay.Number[task]})
	case Peterson:
		// Dropping the flag releases; Peterson's own victim word doubles
		// as turn hand-off, so Alternate needs no extra write.
		s.reset(MemOp{Kind: WriteUncached, Addr: lay.Choosing[task]})
		return s
	default:
		panic(fmt.Sprintf("lock: unknown kind %v", m.cfg.Kind))
	}
	if m.cfg.Alternate {
		s.ops[1] = MemOp{Kind: WriteUncached, Addr: lay.TurnWord, Val: uint32((task + 1) % m.cfg.Tasks)}
		s.n = 2
	}
	return s
}

// seqStepper emits a fixed sequence of at most two ops.
type seqStepper struct {
	ops  [2]MemOp
	n, i int
}

// reset makes first the whole sequence.
func (s *seqStepper) reset(first MemOp) {
	*s = seqStepper{n: 1}
	s.ops[0] = first
}

func (s *seqStepper) Step(uint32) (MemOp, bool) {
	if s.i >= s.n {
		return MemOp{}, true
	}
	op := s.ops[s.i]
	s.i++
	return op, false
}

// tasAcquire: optionally wait for the turn word, then test-and-set in a
// poll loop.
type tasAcquire struct {
	cfg      *Config
	lay      *Layout
	task     int
	kindRead MemOpKind
	kindRMW  MemOpKind
	phase    int // 0 read turn, 1 eval turn, 2 rmw, 3 eval rmw, 4 spin, done
}

func (s *tasAcquire) Step(last uint32) (MemOp, bool) {
	for {
		switch s.phase {
		case 0:
			if !s.cfg.Alternate {
				s.phase = 2
				continue
			}
			s.phase = 1
			return MemOp{Kind: s.kindRead, Addr: s.lay.TurnWord}, false
		case 1:
			if last == uint32(s.task) {
				s.phase = 2
				continue
			}
			s.phase = 0
			if s.cfg.SpinDelay > 0 {
				return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
			}
			continue
		case 2:
			s.phase = 3
			return MemOp{Kind: s.kindRMW, Addr: s.lay.LockWord, Val: 1}, false
		case 3:
			if last == 0 {
				return MemOp{}, true // lock was free: acquired
			}
			s.phase = 4
			continue
		case 4:
			// Poll until the lock reads free, then test-and-set again.
			s.phase = 5
			return MemOp{Kind: s.kindRead, Addr: s.lay.LockWord}, false
		case 5:
			if last == 0 {
				s.phase = 2
				continue
			}
			s.phase = 4
			if s.cfg.SpinDelay > 0 {
				return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
			}
			continue
		default:
			return MemOp{}, true
		}
	}
}

// cachedTASAcquire is the non-atomic cached read/test/write sequence used
// only by the deadlock demonstration.
type cachedTASAcquire struct {
	cfg   *Config
	lay   *Layout
	task  int
	phase int
}

func (s *cachedTASAcquire) Step(last uint32) (MemOp, bool) {
	for {
		switch s.phase {
		case 0:
			if !s.cfg.Alternate {
				s.phase = 2
				continue
			}
			s.phase = 1
			return MemOp{Kind: ReadUncached, Addr: s.lay.TurnWord}, false
		case 1:
			if last == uint32(s.task) {
				s.phase = 2
				continue
			}
			s.phase = 0
			continue
		case 2:
			s.phase = 3
			return MemOp{Kind: ReadCached, Addr: s.lay.LockWord}, false
		case 3:
			if last == 0 {
				s.phase = 4
				continue
			}
			s.phase = 2
			if s.cfg.SpinDelay > 0 {
				s.phase = 6
				return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
			}
			continue
		case 4:
			s.phase = 5
			return MemOp{Kind: WriteCached, Addr: s.lay.LockWord, Val: 1}, false
		case 5:
			return MemOp{}, true
		case 6:
			s.phase = 2
			continue
		default:
			return MemOp{}, true
		}
	}
}

// bakeryAcquire implements Lamport's bakery algorithm for task i:
//
//	choosing[i] = 1
//	number[i] = 1 + max(number[0..n-1])
//	choosing[i] = 0
//	for j != i:
//	    while choosing[j] != 0 {}
//	    while number[j] != 0 && (number[j], j) < (number[i], i) {}
type bakeryAcquire struct {
	cfg   *Config
	lay   *Layout
	task  int
	phase int
	j     int
	max   uint32
	mine  uint32
}

func (s *bakeryAcquire) Step(last uint32) (MemOp, bool) {
	L := s.lay
	for {
		switch s.phase {
		case 0: // optional alternation gate
			if !s.cfg.Alternate {
				s.phase = 2
				continue
			}
			s.phase = 1
			return MemOp{Kind: ReadUncached, Addr: L.TurnWord}, false
		case 1:
			if last == uint32(s.task) {
				s.phase = 2
				continue
			}
			s.phase = 0
			if s.cfg.SpinDelay > 0 {
				return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
			}
			continue
		case 2: // choosing[i] = 1
			s.phase = 3
			return MemOp{Kind: WriteUncached, Addr: L.Choosing[s.task], Val: 1}, false
		case 3: // scan numbers for max
			s.j = 0
			s.max = 0
			s.phase = 4
			continue
		case 4:
			if s.j >= s.cfg.Tasks {
				s.mine = s.max + 1
				s.phase = 6
				continue
			}
			s.phase = 5
			return MemOp{Kind: ReadUncached, Addr: L.Number[s.j]}, false
		case 5:
			if last > s.max {
				s.max = last
			}
			s.j++
			s.phase = 4
			continue
		case 6: // number[i] = max+1
			s.phase = 7
			return MemOp{Kind: WriteUncached, Addr: L.Number[s.task], Val: s.mine}, false
		case 7: // choosing[i] = 0
			s.phase = 8
			return MemOp{Kind: WriteUncached, Addr: L.Choosing[s.task], Val: 0}, false
		case 8: // start pairwise waits
			s.j = 0
			s.phase = 9
			continue
		case 9:
			if s.j >= s.cfg.Tasks {
				return MemOp{}, true // acquired
			}
			if s.j == s.task {
				s.j++
				continue
			}
			s.phase = 10
			return MemOp{Kind: ReadUncached, Addr: L.Choosing[s.j]}, false
		case 10: // while choosing[j] != 0
			if last != 0 {
				s.phase = 9
				if s.cfg.SpinDelay > 0 {
					s.phase = 13
					return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
				}
				continue
			}
			s.phase = 11
			return MemOp{Kind: ReadUncached, Addr: L.Number[s.j]}, false
		case 11: // while number[j] != 0 && (number[j], j) < (number[i], i)
			if last != 0 && (last < s.mine || (last == s.mine && s.j < s.task)) {
				s.phase = 12
				if s.cfg.SpinDelay > 0 {
					return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
				}
				continue
			}
			s.j++
			s.phase = 9
			continue
		case 12:
			s.phase = 11
			return MemOp{Kind: ReadUncached, Addr: L.Number[s.j]}, false
		case 13:
			s.phase = 9
			continue
		default:
			return MemOp{}, true
		}
	}
}

// petersonAcquire implements Peterson's algorithm for task i of two:
//
//	flag[i] = 1
//	victim = i
//	while flag[1-i] != 0 && victim == i {}
//
// The flag words live in Layout.Choosing; the victim word in
// Layout.Number[0] (both uncached).
type petersonAcquire struct {
	cfg   *Config
	lay   *Layout
	task  int
	phase int
}

func (s *petersonAcquire) Step(last uint32) (MemOp, bool) {
	other := 1 - s.task
	for {
		switch s.phase {
		case 0: // flag[i] = 1
			s.phase = 1
			return MemOp{Kind: WriteUncached, Addr: s.lay.Choosing[s.task], Val: 1}, false
		case 1: // victim = i
			s.phase = 2
			return MemOp{Kind: WriteUncached, Addr: s.lay.Number[0], Val: uint32(s.task)}, false
		case 2: // read flag[other]
			s.phase = 3
			return MemOp{Kind: ReadUncached, Addr: s.lay.Choosing[other]}, false
		case 3:
			if last == 0 {
				return MemOp{}, true // other not contending: acquired
			}
			s.phase = 4
			return MemOp{Kind: ReadUncached, Addr: s.lay.Number[0]}, false
		case 4:
			if last != uint32(s.task) {
				return MemOp{}, true // other is the victim: acquired
			}
			s.phase = 2
			if s.cfg.SpinDelay > 0 {
				s.phase = 5
				return MemOp{Kind: Spin, N: s.cfg.SpinDelay}, false
			}
			continue
		case 5:
			s.phase = 2
			continue
		default:
			return MemOp{}, true
		}
	}
}
