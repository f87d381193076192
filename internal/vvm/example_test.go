package vvm_test

import (
	"fmt"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vvm"
)

// ExampleAssemble assembles a small program and runs it to completion on a
// simulated workstation, reading the result from the exit code.
func ExampleAssemble() {
	code, err := vvm.Assemble(`
        LDI r0, 0         ; sum
        LDI r1, 1         ; i
        LDI r2, 11
loop:   ADD r0, r1
        ADDI r1, 1
        BLT r1, r2, loop
        HALT r0           ; 1+2+...+10
`)
	if err != nil {
		panic(err)
	}

	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	h := kernel.NewHost(eng, bus, 0, "ws0")
	lh, _ := h.CreateLH("sum", false)
	as, _ := lh.CreateSpace(64 * 1024)
	as.WriteAt(vvm.CodeBase, code)
	p := lh.NewProcess(as.ID, vvm.BodyKind, kernel.Regs{})
	h.Start(p)
	eng.RunFor(time.Second)

	fmt.Println("exit:", p.Regs().W[kernel.RegExitCode])
	// Output:
	// exit: 55
}

// ExampleDisassemble round-trips bytecode back to assembly text.
func ExampleDisassemble() {
	code, _ := vvm.Assemble("LDI r3, 0x10\nHALT r3\n")
	fmt.Print(vvm.Disassemble(code))
	// Output:
	//         LDI r3, 0x10
	//         HALT r3
}
