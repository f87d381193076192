package main

import (
	"encoding/binary"
	"time"

	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/vvm"
)

// quietKind is the benchmark's own program body: it computes for a set
// time, dirtying a small hot set as it goes, and exits without printing.
//
// The stock workload.Image body prints a "done" line as it exits, and that
// is why it cannot be used for workloads that run thousands of short
// programs: a workstation has vid.LHSlotCount (32) logical-host ids and
// recycles them, so the 33rd program on a host reuses the first one's
// process id; its first message to a display server that served the earlier
// owner carries the same transaction id, is taken for a retransmission of
// an unanswered request, and is answered "reply pending" for ever — the
// program never exits and its Wait never returns. README.md records this
// as a lead for a correctness issue; the benchmark sidesteps it rather
// than measure a hang.
const quietKind = "bench-quiet"

const (
	quietTick     = 10 * time.Millisecond
	quietHotPages = 8
)

func init() {
	kernel.RegisterBody(quietKind, func() kernel.Body { return kernel.BodyFunc(runQuiet) })
}

// quietImage builds a program that uses serviceMs of CPU; pad sets the
// stored file size, which is what the file server ships per execution.
func quietImage(name string, serviceMs, pad uint32) *image.Image {
	code := make([]byte, 4)
	binary.LittleEndian.PutUint32(code, serviceMs)
	return &image.Image{
		Name:      name,
		Kind:      quietKind,
		Code:      code,
		SpaceSize: vvm.CodeBase + 64*1024,
		Pad:       pad,
	}
}

// runQuiet keeps its progress in a register so that a re-dispatched or
// migrated copy resumes where it stopped.
func runQuiet(ctx *kernel.ProcCtx) {
	as, r := ctx.Space(), ctx.Regs()
	serviceMs, err := as.ReadWord(vvm.CodeBase)
	if err != nil {
		ctx.Exit(0xFF)
	}
	hot := uint32(vvm.CodeBase) + 16*1024
	for tick := &r.W[kernel.RegUser]; time.Duration(*tick)*quietTick < time.Duration(serviceMs)*time.Millisecond; *tick++ {
		ctx.Compute(quietTick)
		if err := as.WriteWord(hot+(*tick%quietHotPages)*mem.PageSize, *tick); err != nil {
			ctx.Exit(0xFE)
		}
	}
	ctx.Exit(0)
}
