package isa

import (
	"strings"
	"testing"
)

func TestAssembleBasic(t *testing.T) {
	prog, err := Assemble(`
		; a tiny task
		lock 0
		ld 0x10000000
		st 0x10000004, 7   # store
		clean 0x10000000
		inval 0x10000020
		waiteq 0x20000000, 1
		delay 5
		nop
		unlock 0
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{LockAcquire, Read, Write, CleanLine, InvalLine, WaitEq, Delay, Nop, LockRelease, Halt}
	if len(prog) != len(want) {
		t.Fatalf("%d ops, want %d", len(prog), len(want))
	}
	for i, k := range want {
		if prog[i].Kind != k {
			t.Fatalf("op %d = %v, want %v", i, prog[i].Kind, k)
		}
	}
	if prog[2].Addr != 0x10000004 || prog[2].Val != 7 {
		t.Fatalf("store %+v", prog[2])
	}
	if prog[6].N != 5 {
		t.Fatalf("delay %+v", prog[6])
	}
}

func TestAssembleAppendsHalt(t *testing.T) {
	prog, err := Assemble("nop")
	if err != nil {
		t.Fatal(err)
	}
	if prog[len(prog)-1].Kind != Halt {
		t.Fatal("missing implicit halt")
	}
}

func TestAssembleRepeatExpansion(t *testing.T) {
	prog, err := Assemble(`
		.repeat 3
		  st 0x1000+@*4, @
		.end
	`)
	if err != nil {
		t.Fatal(err)
	}
	// 3 stores + halt.
	if len(prog) != 4 {
		t.Fatalf("%d ops", len(prog))
	}
	for i := 0; i < 3; i++ {
		op := prog[i]
		if op.Kind != Write || op.Addr != uint32(0x1000+4*i) || op.Val != uint32(i) {
			t.Fatalf("iteration %d: %+v", i, op)
		}
	}
}

func TestAssembleNestedRepeat(t *testing.T) {
	prog, err := Assemble(`
		.repeat 2
		  ld 0x100
		  .repeat 2
		    nop
		  .end
		.end
	`)
	if err != nil {
		t.Fatal(err)
	}
	// (ld + 2 nops) x 2 + halt = 7.
	if len(prog) != 7 {
		t.Fatalf("%d ops: %v", len(prog), prog)
	}
}

func TestAssembleRepeatZero(t *testing.T) {
	prog, err := Assemble(`
		.repeat 0
		  st 0x100, 1
		.end
		nop
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Writes() != 0 || len(prog) != 2 {
		t.Fatalf("zero repeat emitted ops: %v", prog)
	}
}

func TestAssembleOperandArithmetic(t *testing.T) {
	prog, err := Assemble(`
		.repeat 2
		  st 0x1000+@*32+4, 2*3+@
		.end
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog[0].Addr != 0x1004 || prog[0].Val != 6 {
		t.Fatalf("it 0: %+v", prog[0])
	}
	if prog[1].Addr != 0x1024 || prog[1].Val != 7 {
		t.Fatalf("it 1: %+v", prog[1])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus 1",
		"ld",
		"st 0x100",
		"delay x",
		".repeat 2\nnop",             // missing .end
		".end",                       // stray .end
		"st @, 1",                    // @ outside repeat
		".repeat\nnop\n.end",         // missing count
		"ld 1+",                      // dangling operator
		".repeat 9999999\nnop\n.end", // absurd count
		"delay 0x80000000",           // count beyond Op.N's 32 bits
		"delay 0x100000001",          // would truncate to 1
		"lock 4294967296",            // would truncate to 0
		"unlock -2147483649",         // below Op.N's range
		"delay -1",                   // negative (Validate)
	}
	for i, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("case %d assembled: %q", i, src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	orig := NewBuilder().
		Lock(0).
		Read(0x10000000).
		Write(0x10000004, 9).
		WaitEq(0x20000000, 1).
		Delay(3).
		Clean(0x10000000).
		Inval(0x10000020).
		Unlock(0).
		Halt()
	text := Format(orig)
	back, err := Assemble(text)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
	if len(back) != len(orig) {
		t.Fatalf("length %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("op %d: %+v vs %+v", i, back[i], orig[i])
		}
	}
}

func TestAssembleWorkloadShapedProgram(t *testing.T) {
	// A WCS-like critical-section loop written by hand.
	src := `
	.repeat 4
	  lock 0
	  .repeat 8
	    ld 0x10000000+@*4
	    st 0x10000000+@*4, @+1
	  .end
	  unlock 0
	.end
	`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Reads() != 32 || prog.Writes() != 32 {
		t.Fatalf("reads %d writes %d", prog.Reads(), prog.Writes())
	}
	if got := strings.Count(Format(prog), "lock 0"); got != 8 { // 4 lock + 4 unlock contain "lock 0"
		t.Fatalf("lock statements %d", got)
	}
}

// TestAssembleNestedRepeatBound: nested .repeat counts multiply, so each
// count's own cap does not bound the expansion.  Two nested blocks of 2048
// expand to about four million ops, which the assembler must refuse with an
// error instead of building.
func TestAssembleNestedRepeatBound(t *testing.T) {
	src := ".repeat 2048\n.repeat 2048\nnop\n.end\n.end"
	prog, err := Assemble(src)
	if err == nil {
		t.Fatalf("nested .repeat expanded to %d ops without error", len(prog))
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error %q names no line", err)
	}
	// An empty inner body emits nothing, yet loops 2^40 times unless the
	// iterations count against the bound too.
	if _, err := Assemble(".repeat 1048576\n.repeat 1048576\n.end\n.end"); err == nil {
		t.Error("nested empty .repeat blocks assembled")
	}
	// One block at the per-count cap stays within the bound.
	prog, err = Assemble(".repeat 1048576\nnop\n.end")
	if err != nil || len(prog) != 1<<20+1 {
		t.Errorf("single capped .repeat: %d ops, %v", len(prog), err)
	}
}
