package isa

import "testing"

// FuzzAssemble: any source assembles to a valid program within the
// expansion bound or fails with an error, and an accepted program survives a
// Format / Assemble round trip unchanged.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{
		"lock 0\nld 0x10000000\nst 0x10000004, 7   # store\nclean 0x10000000\ninval 0x10000020\nwaiteq 0x20000000, 1\ndelay 5\nnop\nunlock 0\nhalt",
		"nop",
		".repeat 3\n  st 0x1000+@*4, @\n.end",
		".repeat 2\n  ld 0x100\n  .repeat 2\n    nop\n  .end\n.end",
		".repeat 0\n  st 0x100, 1\n.end\nnop",
		".repeat 2\n  st 0x1000+@*32+4, 2*3+@\n.end",
		".repeat 4\n  lock 0\n  .repeat 8\n    ld 0x10000000+@*4\n    st 0x10000000+@*4, @+1\n  .end\n  unlock 0\n.end",
		".repeat 2\nnop",
		".end",
		"st @, 1",
		"ld 1+",
		"delay 0x80000000",
		"delay -1",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("accepted an invalid program: %v", err)
		}
		if len(prog) > maxAssembleSteps+1 {
			t.Fatalf("%d ops exceed the expansion bound", len(prog))
		}
		back, err := Assemble(Format(prog))
		if err != nil {
			t.Fatalf("formatted program does not assemble: %v", err)
		}
		if len(back) != len(prog) {
			t.Fatalf("round trip: %d ops, want %d", len(back), len(prog))
		}
		for i := range prog {
			if back[i] != prog[i] {
				t.Fatalf("round trip op %d: %+v, want %+v", i, back[i], prog[i])
			}
		}
	})
}
