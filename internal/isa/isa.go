// Package isa defines the micro-operation instruction set executed by the
// simulated processor cores.
//
// The paper's microbenchmarks are small assembly tasks ("one task runs on
// each processor ... accesses a number of cache lines and modifies them for
// exec_time iterations").  We represent each task as a flat slice of micro-
// ops; the workload generator unrolls loops so the core interpreter stays a
// simple linear fetch-execute machine with no branch state.
package isa

import (
	"fmt"
	"math"
)

// Kind enumerates the micro-operation kinds.
type Kind uint8

const (
	// Nop consumes one CPU cycle.
	Nop Kind = iota
	// Read loads the word at Addr.
	Read
	// Write stores Val to the word at Addr.
	Write
	// Delay stalls the core for N CPU cycles (models computation).
	Delay
	// LockAcquire blocks until the task owns critical-section lock N.
	LockAcquire
	// LockRelease releases critical-section lock N.
	LockRelease
	// CleanLine writes back (if dirty) and invalidates the cache line
	// containing Addr.  This is the software solution's explicit "drain".
	CleanLine
	// InvalLine invalidates the cache line containing Addr without writing
	// it back.
	InvalLine
	// Halt retires the program; the core goes idle.
	Halt
	// WaitEq polls the word at Addr until it equals Val (device-completion
	// polling, e.g. the DMA STATUS register).
	WaitEq
)

// String returns the mnemonic for k.
func (k Kind) String() string {
	switch k {
	case Nop:
		return "nop"
	case Read:
		return "ld"
	case Write:
		return "st"
	case Delay:
		return "delay"
	case LockAcquire:
		return "lock"
	case LockRelease:
		return "unlock"
	case CleanLine:
		return "clean"
	case InvalLine:
		return "inval"
	case Halt:
		return "halt"
	case WaitEq:
		return "waiteq"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one micro-operation.  The meaning of Addr, Val and N depends on
// Kind; unused fields are zero.  An Op is 16 bytes: programs are the bulk
// of a long run's memory, and a generator fills them op by op.
type Op struct {
	Kind Kind
	Addr uint32
	Val  uint32
	N    int32
}

// String formats the op in a readable assembly-like syntax.
func (o Op) String() string {
	switch o.Kind {
	case Read, CleanLine, InvalLine:
		return fmt.Sprintf("%s 0x%08x", o.Kind, o.Addr)
	case Write, WaitEq:
		return fmt.Sprintf("%s 0x%08x, %d", o.Kind, o.Addr, o.Val)
	case Delay:
		return fmt.Sprintf("%s %d", o.Kind, o.N)
	case LockAcquire, LockRelease:
		return fmt.Sprintf("%s %d", o.Kind, o.N)
	default:
		return o.Kind.String()
	}
}

// Program is a flat sequence of micro-ops ending (by convention) in Halt.
type Program []Op

// Validate checks structural well-formedness: non-empty, terminated by Halt,
// no Halt in the middle, and non-negative counts.
func (p Program) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	if p[len(p)-1].Kind != Halt {
		return fmt.Errorf("isa: program does not end in halt")
	}
	for i, op := range p {
		if op.Kind == Halt && i != len(p)-1 {
			return fmt.Errorf("isa: halt at %d before end of program", i)
		}
		if op.N < 0 {
			return fmt.Errorf("isa: op %d (%s) has negative count", i, op)
		}
	}
	return nil
}

// Reads counts the Read ops in p.
func (p Program) Reads() int { return p.count(Read) }

// Writes counts the Write ops in p.
func (p Program) Writes() int { return p.count(Write) }

func (p Program) count(k Kind) int {
	n := 0
	for _, op := range p {
		if op.Kind == k {
			n++
		}
	}
	return n
}

// Builder assembles programs fluently.  All methods return the builder so
// calls can be chained.
type Builder struct {
	ops Program
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return &Builder{} }

// NewBuilderSize returns an empty builder whose program has room for n ops,
// so a generator that knows its op count allocates the program once.
func NewBuilderSize(n int) *Builder { return &Builder{ops: make(Program, 0, n)} }

// Read appends a load of addr.
func (b *Builder) Read(addr uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: Read, Addr: addr})
	return b
}

// Write appends a store of val to addr.
func (b *Builder) Write(addr, val uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: Write, Addr: addr, Val: val})
	return b
}

// Delay appends an n-cycle stall.
func (b *Builder) Delay(n int) *Builder {
	b.ops = append(b.ops, Op{Kind: Delay, N: opN(n)})
	return b
}

// Lock appends an acquire of lock id.
func (b *Builder) Lock(id int) *Builder {
	b.ops = append(b.ops, Op{Kind: LockAcquire, N: opN(id)})
	return b
}

// Unlock appends a release of lock id.
func (b *Builder) Unlock(id int) *Builder {
	b.ops = append(b.ops, Op{Kind: LockRelease, N: opN(id)})
	return b
}

// Clean appends a drain (write back + invalidate) of the line holding addr.
func (b *Builder) Clean(addr uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: CleanLine, Addr: addr})
	return b
}

// Inval appends an invalidate of the line holding addr.
func (b *Builder) Inval(addr uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: InvalLine, Addr: addr})
	return b
}

// WaitEq appends a poll of addr until it reads val.
func (b *Builder) WaitEq(addr, val uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: WaitEq, Addr: addr, Val: val})
	return b
}

// opN converts a builder's count to Op.N, panicking on a count Op.N
// cannot hold rather than truncating it.
func opN(n int) int32 {
	if n < math.MinInt32 || n > math.MaxInt32 {
		panic(fmt.Sprintf("isa: count %d out of range", n))
	}
	return int32(n)
}

// Halt terminates the program and returns it.
func (b *Builder) Halt() Program {
	b.ops = append(b.ops, Op{Kind: Halt})
	return b.ops
}
