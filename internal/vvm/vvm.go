// Package vvm implements the V virtual machine: a small bytecode
// interpreter whose entire execution state lives in the process's register
// blob and address space.
//
// This is the reproduction's substitute for the paper's 68010 binaries:
// because a goroutine's stack cannot be migrated, user programs run on a VM
// whose state is pure data. Migration then moves *real* program state —
// the property tests assert that a program produces bit-identical results
// with and without migrations, which is the paper's transparency claim.
//
// Execution is charged to the simulated CPU at params.InstrTime per
// instruction (a ~1 MIPS 68010). Blocking operations (SEND, OUT) record a
// resume phase in the registers so the interpreter re-enters them after a
// migration.
package vvm

import (
	"vsystem/internal/kernel"
	"vsystem/internal/vid"
)

// Op codes. Instructions are byte-aligned: opcode byte, then operands
// (register bytes, little-endian 32-bit immediates).
const (
	NOP  byte = iota
	HALT      // HALT r        : exit with code r
	LDI       // LDI r imm32   : r = imm
	MOV       // MOV r s       : r = s
	ADD       // ADD r s       : r += s
	SUB       // SUB r s
	MUL       // MUL r s
	DIV       // DIV r s       : r /= s (0 if s == 0)
	MOD       // MOD r s
	AND       // AND r s
	OR        // OR r s
	XOR       // XOR r s
	SHL       // SHL r s
	SHR       // SHR r s
	ADDI      // ADDI r imm32
	LD        // LD r s imm32  : r = mem32[s+imm]
	ST        // ST r s imm32  : mem32[s+imm] = r
	LDB       // LDB r s imm32 : r = mem8[s+imm]
	STB       // STB r s imm32 : mem8[s+imm] = r (low byte)
	JMP       // JMP imm32
	BEQ       // BEQ r s imm32 : if r == s jump
	BNE       // BNE r s imm32
	BLT       // BLT r s imm32 : unsigned <
	BGE       // BGE r s imm32
	CALL      // CALL imm32    : push PC, jump
	RET       // RET           : pop PC
	PUSH      // PUSH r
	POP       // POP r
	RND       // RND r s       : r = next xorshift32 of seed register s
	SEND      // SEND r        : message transaction via block at address r
	OUT       // OUT r s       : write mem[r..r+s) to the stdout server
	opMax
)

// Register-blob layout (within kernel.Regs.W).
const (
	regPC      = kernel.RegUser + 0
	regSP      = kernel.RegUser + 1
	regPending = kernel.RegUser + 2 // 0 none, 1 SEND, 2 OUT
	regBlock   = kernel.RegUser + 3 // message block addr of pending SEND
	regGPR     = kernel.RegUser + 4 // r0..r15 follow
	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
)

// Message-block layout for SEND (word offsets).
const (
	blkDst     = 0  // destination PID
	blkOp      = 4  // low 16: op; high 16: code (reply code written back)
	blkW0      = 8  // 6 data words, in and out
	blkSegAddr = 32 // outgoing segment address
	blkSegLen  = 36 // outgoing segment length
	blkRepAddr = 40 // reply segment buffer address
	blkRepCap  = 44 // reply segment buffer capacity
	blkRepLen  = 48 // reply segment length (written back)
	blkErr     = 52 // 0 ok, else vid code
	// BlockSize is the size of a message block.
	BlockSize = 56
)

// CodeBase is where program code is loaded; the env block occupies page 0.
const CodeBase = 0x1000

// BodyKind is the registry key for VVM programs.
const BodyKind = "vvm"

func init() {
	kernel.RegisterBody(BodyKind, func() kernel.Body { return &machine{} })
}

// machine interprets one process's bytecode.
type machine struct{}

// chargeBatch bounds how many instructions run between CPU charges (and
// thus how stale the virtual clock can get inside the interpreter).
const chargeBatch = 256

// Run implements kernel.Body. It resumes cleanly from the register blob:
// a pending SEND/OUT is completed first, then the fetch-execute loop
// continues at the saved PC.
func (m *machine) Run(ctx *kernel.ProcCtx) {
	r := ctx.Regs()
	as := ctx.Space()
	if r.W[regPC] == 0 {
		r.W[regPC] = CodeBase
	}
	if r.W[regSP] == 0 {
		r.W[regSP] = as.Size()
	}
	pending := 0

	// fault terminates the program with exit code 0xFF (address fault,
	// bad opcode). The offending PC is left in the registers for tools.
	fault := func(string, ...any) {
		ctx.Exit(0xFF)
	}

	gpr := func(i byte) *uint32 {
		if int(i) >= NumRegs {
			fault("bad register %d", i)
		}
		return &r.W[regGPR+uint32(i)]
	}

	rd8 := func(addr uint32) byte {
		b, err := as.ReadByteAt(addr)
		if err != nil {
			fault("read fault %#x", addr)
		}
		return b
	}
	rd32 := func(addr uint32) uint32 {
		v, err := as.ReadWord(addr)
		if err != nil {
			fault("read fault %#x", addr)
		}
		return v
	}
	wr32 := func(addr, v uint32) {
		if err := as.WriteWord(addr, v); err != nil {
			fault("write fault %#x", addr)
		}
	}

	// completeIPC finishes a pending SEND/OUT transaction: awaits the
	// reply and writes it into the message block.
	completeIPC := func() {
		if !ctx.Sending() {
			// No transaction outstanding: the pending flag was set but
			// the send itself never issued (cannot happen through this
			// interpreter, which issues before setting the flag, but a
			// hand-built register blob could). Clear and continue.
			r.W[regPending] = 0
			return
		}
		reply, err := ctx.AwaitReply()
		blk := r.W[regBlock]
		if r.W[regPending] == 1 { // SEND writes results back
			if err != nil {
				code := uint32(vid.CodeTimeout)
				if ce, ok := err.(vid.CodeError); ok {
					code = uint32(ce)
				}
				wr32(blk+blkErr, code)
			} else {
				wr32(blk+blkErr, 0)
				wr32(blk+blkOp, uint32(reply.Op)|uint32(reply.Code)<<16)
				for i, w := range reply.W {
					wr32(blk+blkW0+uint32(4*i), w)
				}
				rcap := rd32(blk + blkRepCap)
				n := uint32(len(reply.Seg))
				if n > rcap {
					n = rcap
				}
				if n > 0 {
					if werr := as.WriteAt(rd32(blk+blkRepAddr), reply.Seg[:n]); werr != nil {
						fault("reply seg fault")
					}
				}
				wr32(blk+blkRepLen, n)
			}
		}
		r.W[regPending] = 0
	}

	if r.W[regPending] != 0 {
		completeIPC()
	}

	for {
		if pending >= chargeBatch {
			ctx.Steps(pending)
			pending = 0
		}
		pc := r.W[regPC]
		op := rd8(pc)
		pc++
		// Operand helpers advance pc as they decode.
		reg := func() byte { b := rd8(pc); pc++; return b }
		imm := func() uint32 {
			v, err := as.ReadWord(pc)
			if err != nil {
				fault("fetch fault %#x", pc)
			}
			pc += 4
			return v
		}
		cost := 1

		switch op {
		case NOP:
		case HALT:
			code := *gpr(reg())
			ctx.Steps(pending + 1)
			ctx.Exit(code)
		case LDI:
			d := reg()
			*gpr(d) = imm()
		case MOV:
			d, s := reg(), reg()
			*gpr(d) = *gpr(s)
		case ADD:
			d, s := reg(), reg()
			*gpr(d) += *gpr(s)
		case SUB:
			d, s := reg(), reg()
			*gpr(d) -= *gpr(s)
		case MUL:
			d, s := reg(), reg()
			*gpr(d) *= *gpr(s)
			cost = 5
		case DIV:
			d, s := reg(), reg()
			if v := *gpr(s); v != 0 {
				*gpr(d) /= v
			} else {
				*gpr(d) = 0
			}
			cost = 8
		case MOD:
			d, s := reg(), reg()
			if v := *gpr(s); v != 0 {
				*gpr(d) %= v
			} else {
				*gpr(d) = 0
			}
			cost = 8
		case AND:
			d, s := reg(), reg()
			*gpr(d) &= *gpr(s)
		case OR:
			d, s := reg(), reg()
			*gpr(d) |= *gpr(s)
		case XOR:
			d, s := reg(), reg()
			*gpr(d) ^= *gpr(s)
		case SHL:
			d, s := reg(), reg()
			*gpr(d) <<= *gpr(s) & 31
		case SHR:
			d, s := reg(), reg()
			*gpr(d) >>= *gpr(s) & 31
		case ADDI:
			d := reg()
			*gpr(d) += imm()
		case LD:
			d, s := reg(), reg()
			*gpr(d) = rd32(*gpr(s) + imm())
			cost = 2
		case ST:
			d, s := reg(), reg()
			wr32(*gpr(s)+imm(), *gpr(d))
			cost = 2
		case LDB:
			d, s := reg(), reg()
			*gpr(d) = uint32(rd8(*gpr(s) + imm()))
			cost = 2
		case STB:
			d, s := reg(), reg()
			if err := as.WriteAt(*gpr(s)+imm(), []byte{byte(*gpr(d))}); err != nil {
				fault("write fault")
			}
			cost = 2
		case JMP:
			pc = imm()
		case BEQ:
			a, b := reg(), reg()
			t := imm()
			if *gpr(a) == *gpr(b) {
				pc = t
			}
		case BNE:
			a, b := reg(), reg()
			t := imm()
			if *gpr(a) != *gpr(b) {
				pc = t
			}
		case BLT:
			a, b := reg(), reg()
			t := imm()
			if *gpr(a) < *gpr(b) {
				pc = t
			}
		case BGE:
			a, b := reg(), reg()
			t := imm()
			if *gpr(a) >= *gpr(b) {
				pc = t
			}
		case CALL:
			t := imm()
			r.W[regSP] -= 4
			wr32(r.W[regSP], pc)
			pc = t
			cost = 3
		case RET:
			pc = rd32(r.W[regSP])
			r.W[regSP] += 4
			cost = 3
		case PUSH:
			s := reg()
			r.W[regSP] -= 4
			wr32(r.W[regSP], *gpr(s))
			cost = 2
		case POP:
			d := reg()
			*gpr(d) = rd32(r.W[regSP])
			r.W[regSP] += 4
			cost = 2
		case RND:
			d, s := reg(), reg()
			x := *gpr(s)
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			if x == 0 {
				x = 0x9E3779B9
			}
			*gpr(s) = x
			*gpr(d) = x
			cost = 4
		case SEND:
			// The committed PC stays at the instruction until the charge
			// below completes: a freeze can park the process mid-charge,
			// and the migrated copy must then re-execute the SEND (nothing
			// has been issued yet). PC and the pending flag advance only
			// once nothing can park us before the transaction is recorded
			// in the port, so a snapshot sees either "before the
			// instruction, no send" or "after it, send in flight" — never
			// a committed PC with the send silently dropped.
			blk := *gpr(reg())
			ctx.Steps(pending + 20)
			pending = 0
			r.W[regPC] = pc
			r.W[regPending] = 1
			r.W[regBlock] = blk
			m.startSend(ctx, blk, rd32, fault)
			completeIPC()
			continue
		case OUT:
			a, l := reg(), reg()
			addr, n := *gpr(a), *gpr(l)
			ctx.Steps(pending + 20) // PC still at the OUT; see SEND
			pending = 0
			r.W[regPC] = pc
			r.W[regPending] = 2
			m.startOut(ctx, addr, n, fault)
			completeIPC()
			continue
		default:
			fault("bad opcode %d at %#x", op, pc-1)
		}
		pending += cost
		r.W[regPC] = pc
	}
}

// startSend issues the transaction described by the message block.
func (m *machine) startSend(ctx *kernel.ProcCtx, blk uint32, rd32 func(uint32) uint32, fault func(string, ...any)) {
	as := ctx.Space()
	msg := vid.Message{Op: uint16(rd32(blk + blkOp))}
	for i := 0; i < 6; i++ {
		msg.W[i] = rd32(blk + blkW0 + uint32(4*i))
	}
	if n := rd32(blk + blkSegLen); n > 0 {
		if n > vid.SegMax {
			fault("segment too large")
		}
		seg := make([]byte, n)
		if err := as.ReadAt(rd32(blk+blkSegAddr), seg); err != nil {
			fault("segment fault")
		}
		msg.Seg = seg
	}
	ctx.StartSend(vid.PID(rd32(blk+blkDst)), msg)
}

// startOut issues a write-line transaction to the program's stdout server
// (from the environment block).
func (m *machine) startOut(ctx *kernel.ProcCtx, addr, n uint32, fault func(string, ...any)) {
	as := ctx.Space()
	if n > 4096 {
		fault("OUT too large")
	}
	buf := make([]byte, n)
	if err := as.ReadAt(addr, buf); err != nil {
		fault("OUT fault")
	}
	stdout, err := as.ReadWord(EnvStdoutPID)
	if err != nil || stdout == 0 {
		fault("no stdout server")
	}
	ctx.StartSend(vid.PID(stdout), vid.Message{Op: OpWriteLine, Seg: buf})
}

// OpWriteLine is the display-server operation VVM OUT uses (shared with
// internal/display; defined here to avoid a dependency cycle).
const OpWriteLine uint16 = 0x70

// Environment-block word offsets in page 0 (written by the program
// manager at program creation, §2.1: arguments, default I/O, environment
// variables, name cache).
const (
	EnvMagic      = 0x00 // magic word
	EnvStdoutPID  = 0x04 // display server of the user's home workstation
	EnvFServerPID = 0x08 // a network file server
	EnvArgc       = 0x0C
	EnvArgv       = 0x10 // offset of NUL-separated argument bytes
	EnvHeap       = 0x14 // first free address after code+data
	EnvMagicValue = 0x56454E56
)
