package vvm

import (
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/sim"
)

// runProgram executes assembled code on a fresh host until exit and
// returns the exit code (from the register blob).
func runProgram(t *testing.T, src string, budget time.Duration) uint32 {
	t.Helper()
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	h := kernel.NewHost(eng, bus, 0, "t")
	lh, _ := h.CreateLH("prog", false)
	as, err := lh.CreateSpace(256 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(CodeBase, code); err != nil {
		t.Fatal(err)
	}
	// Minimal env: heap after code.
	heap := (CodeBase + uint32(len(code)) + 1023) &^ 1023
	as.WriteWord(EnvMagic, EnvMagicValue)
	as.WriteWord(EnvHeap, heap)
	p := lh.NewProcess(as.ID, BodyKind, kernel.Regs{})
	h.Start(p)
	eng.RunFor(budget)
	if !p.Dead() {
		t.Fatalf("program did not exit within %v", budget)
	}
	return p.Regs().W[kernel.RegExitCode]
}

func TestArithmeticAndBranches(t *testing.T) {
	// Sum 1..100 = 5050; halt with sum%251 = 30.
	code := runProgram(t, `
        LDI r0, 0
        LDI r1, 1
        LDI r2, 101
loop:   ADD r0, r1
        ADDI r1, 1
        BLT r1, r2, loop
        LDI r3, 251
        MOD r0, r3
        HALT r0
`, time.Minute)
	if code != 5050%251 {
		t.Fatalf("exit = %d, want %d", code, 5050%251)
	}
}

func TestMemoryOps(t *testing.T) {
	code := runProgram(t, `
        LDI r0, 0x8000
        LDI r1, 0xDEAD
        ST r1, r0, 0
        LD r2, r0, 0
        LDI r3, 0xBEEF
        STB r3, r0, 100
        LDB r4, r0, 100
        SUB r2, r1       ; 0 if ST/LD round-tripped
        LDI r5, 0xEF
        SUB r4, r5       ; 0 if STB/LDB truncated correctly
        ADD r2, r4
        HALT r2
`, time.Minute)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestCallRetStack(t *testing.T) {
	code := runProgram(t, `
        LDI r0, 7
        CALL double
        CALL double
        HALT r0          ; 28
double: ADD r0, r0
        RET
`, time.Minute)
	if code != 28 {
		t.Fatalf("exit = %d, want 28", code)
	}
}

func TestPushPop(t *testing.T) {
	code := runProgram(t, `
        LDI r0, 11
        LDI r1, 22
        PUSH r0
        PUSH r1
        POP r2           ; 22
        POP r3           ; 11
        SUB r2, r3       ; 11
        HALT r2
`, time.Minute)
	if code != 11 {
		t.Fatalf("exit = %d, want 11", code)
	}
}

func TestRNDDeterministic(t *testing.T) {
	src := `
        LDI r1, 42
        RND r0, r1
        RND r0, r1
        RND r0, r1
        LDI r2, 1000
        MOD r0, r2
        HALT r0
`
	a := runProgram(t, src, time.Minute)
	b := runProgram(t, src, time.Minute)
	if a != b {
		t.Fatalf("RND not deterministic: %d vs %d", a, b)
	}
}

func TestBadOpcodeFaults(t *testing.T) {
	code := runProgram(t, `
        .byte 0xEE
`, time.Minute)
	if code != 0xFF {
		t.Fatalf("exit = %d, want 0xFF fault", code)
	}
}

func TestOutOfBoundsFaults(t *testing.T) {
	code := runProgram(t, `
        LDI r0, 0x7FFFFFFF
        LD r1, r0, 0
        HALT r1
`, time.Minute)
	if code != 0xFF {
		t.Fatalf("exit = %d, want 0xFF fault", code)
	}
}

func TestExecutionChargesCPUTime(t *testing.T) {
	// 100k iterations × ~3 instructions ≈ 0.3M instructions ≈ 0.3 s of
	// 1 MIPS CPU; the program must NOT finish in 0.1 s of virtual time.
	src := `
        LDI r0, 0
        LDI r1, 100000
loop:   ADDI r0, 1
        BLT r0, r1, loop
        LDI r0, 0
        HALT r0
`
	code, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	h := kernel.NewHost(eng, bus, 0, "t")
	lh, _ := h.CreateLH("prog", false)
	as, _ := lh.CreateSpace(64 * 1024)
	as.WriteAt(CodeBase, code)
	p := lh.NewProcess(as.ID, BodyKind, kernel.Regs{})
	h.Start(p)
	eng.RunFor(100 * time.Millisecond)
	if p.Dead() {
		t.Fatal("program finished too fast: instructions are not charged")
	}
	eng.RunFor(2 * time.Second)
	if !p.Dead() {
		t.Fatal("program did not finish in 2s")
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"FOO r1, r2",           // unknown mnemonic
		"LDI r99, 5",           // bad register
		"JMP nowhere",          // undefined label
		"LDI r1",               // missing operand
		`.ascii "unterminated`, // bad string
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded", src)
		}
	}
}

func TestAssemblerLabelsAndData(t *testing.T) {
	code, err := Assemble(`
start:  JMP start
data:   .word 1, 2, 0xFF
        .byte 9, 10
        .space 4
        .ascii "hi"
`)
	if err != nil {
		t.Fatal(err)
	}
	// JMP imm = 5 bytes; words 12; bytes 2; space 4; ascii 2 = 25.
	if len(code) != 25 {
		t.Fatalf("code length = %d, want 25", len(code))
	}
	if code[0] != JMP {
		t.Fatal("first op not JMP")
	}
	// The label fixup must point at CodeBase.
	if got := uint32(code[1]) | uint32(code[2])<<8 | uint32(code[3])<<16 | uint32(code[4])<<24; got != CodeBase {
		t.Fatalf("label fixup = %#x, want %#x", got, CodeBase)
	}
	if !strings.HasSuffix(string(code), "hi") {
		t.Fatal("ascii data missing")
	}
}

func TestCommentsAndCharLiterals(t *testing.T) {
	code := runProgram(t, `
        ; a comment line
        LDI r0, 'A'      ; trailing comment
        HALT r0
`, time.Minute)
	if code != 'A' {
		t.Fatalf("exit = %d, want %d", code, 'A')
	}
}
