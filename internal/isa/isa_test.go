package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBuilderProducesValidProgram(t *testing.T) {
	p := NewBuilder().
		Read(0x100).
		Write(0x104, 7).
		Delay(3).
		Lock(0).
		Clean(0x100).
		Inval(0x120).
		Unlock(0).
		Halt()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p) != 8 {
		t.Fatalf("len %d, want 8", len(p))
	}
	if p[len(p)-1].Kind != Halt {
		t.Fatal("missing halt")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	var p Program
	if err := p.Validate(); err == nil {
		t.Fatal("empty program validated")
	}
}

func TestValidateRejectsMissingHalt(t *testing.T) {
	p := Program{{Kind: Read, Addr: 4}}
	if err := p.Validate(); err == nil {
		t.Fatal("halt-less program validated")
	}
}

func TestValidateRejectsMidHalt(t *testing.T) {
	p := Program{{Kind: Halt}, {Kind: Read}, {Kind: Halt}}
	if err := p.Validate(); err == nil {
		t.Fatal("mid-program halt validated")
	}
}

func TestValidateRejectsNegativeCount(t *testing.T) {
	p := Program{{Kind: Delay, N: -1}, {Kind: Halt}}
	if err := p.Validate(); err == nil {
		t.Fatal("negative delay validated")
	}
}

// TestOpIs16Bytes pins the op's layout: programs are the bulk of a long
// run's memory.
func TestOpIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Fatalf("sizeof(Op) = %d, want 16", n)
	}
}

// TestBuilderRejectsOutOfRangeCount: a count Op.N cannot hold panics
// instead of being truncated into a different, valid-looking count.
func TestBuilderRejectsOutOfRangeCount(t *testing.T) {
	for name, build := range map[string]func(){
		"delay":  func() { NewBuilder().Delay(math.MaxInt32 + 2) },
		"lock":   func() { NewBuilder().Lock(1 << 32) },
		"unlock": func() { NewBuilder().Unlock(math.MinInt32 - 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range count accepted", name)
				}
			}()
			build()
		}()
	}
	if p := NewBuilder().Delay(math.MaxInt32).Halt(); p[0].N != math.MaxInt32 || p.Validate() != nil {
		t.Fatalf("largest count: %v, %v", p[0], p.Validate())
	}
}

func TestReadWriteCounts(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.Read(uint32(i * 4))
	}
	for i := 0; i < 3; i++ {
		b.Write(uint32(i*4), uint32(i))
	}
	p := b.Halt()
	if p.Reads() != 5 || p.Writes() != 3 {
		t.Fatalf("reads=%d writes=%d, want 5/3", p.Reads(), p.Writes())
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[string]Op{
		"ld 0x00000100":    {Kind: Read, Addr: 0x100},
		"st 0x00000104, 9": {Kind: Write, Addr: 0x104, Val: 9},
		"delay 4":          {Kind: Delay, N: 4},
		"lock 0":           {Kind: LockAcquire},
		"unlock 1":         {Kind: LockRelease, N: 1},
		"clean 0x00000100": {Kind: CleanLine, Addr: 0x100},
		"inval 0x00000100": {Kind: InvalLine, Addr: 0x100},
		"halt":             {Kind: Halt},
		"nop":              {Kind: Nop},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("op %v renders %q, want %q", op.Kind, got, want)
		}
	}
}

func TestKindStringUnknown(t *testing.T) {
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind string %q", got)
	}
}

// TestBuilderAlwaysValid: any builder call sequence ending in Halt yields a
// program that validates.
func TestBuilderAlwaysValid(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewBuilder()
		for _, o := range ops {
			switch o % 7 {
			case 0:
				b.Read(uint32(o) * 4)
			case 1:
				b.Write(uint32(o)*4, uint32(o))
			case 2:
				b.Delay(int(o % 10))
			case 3:
				b.Lock(0)
			case 4:
				b.Unlock(0)
			case 5:
				b.Clean(uint32(o) * 32)
			case 6:
				b.Inval(uint32(o) * 32)
			}
		}
		return b.Halt().Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaitEqBuilderAndString(t *testing.T) {
	p := isaWait()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p[0].Kind != WaitEq || p[0].Addr != 0x100 || p[0].Val != 7 {
		t.Fatalf("op %+v", p[0])
	}
	if got := p[0].String(); got != "waiteq 0x00000100, 7" {
		t.Fatalf("string %q", got)
	}
}

func isaWait() Program {
	return NewBuilder().WaitEq(0x100, 7).Halt()
}
