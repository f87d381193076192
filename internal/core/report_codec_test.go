package core

import (
	"testing"
	"time"

	"vsystem/internal/packet"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var reportForm = wiretest.Form[MigrationReport]{
	Encode: (*MigrationReport).Encode,
	Decode: DecodeReport,
}

// populatedReport sets every field, post-copy accounting included.
func populatedReport() *MigrationReport {
	return &MigrationReport{
		Policy: "hybrid",
		Rounds: []RoundStat{
			{Pages: 290, KB: 290, Dur: 969803 * time.Microsecond, CopyRateKBps: 299.03},
			{Pages: 84, KB: 84, Dur: 288567 * time.Microsecond, CopyRateKBps: 291.09},
			{Pages: 42, KB: 42, Dur: 149065 * time.Microsecond, CopyRateKBps: 281.76},
		},
		ResidualKB: 32, FreezeTime: 149485 * time.Microsecond, KernelItems: 2,
		KernelTime: 35868 * time.Microsecond, Total: 1589253 * time.Microsecond,
		BytesCopied: 458752, DestHost: 0x0021, NewPM: vid.NewPID(0x0021, 2),
		WireBytes: 460816, WindowSize: 4, WindowSends: 17, WindowStalls: 1, WindowOccupancy: 1.76,
		PostSwapFaults: 12, PostSwapStall: 48 * time.Millisecond, PostSwapPullKB: 96,
		ResiduePushKB: 40, ResidueAborted: true,
	}
}

func TestReportWireForm(t *testing.T) {
	rep := populatedReport()
	seg := reportForm.RoundTrip(t, rep)
	rounds := len(seg) - 2 - len(rep.Rounds)*roundStatLen
	reportForm.Malformed(t, seg, wiretest.Count{Off: rounds, N: 3})
	reportForm.Malformed(t, reportForm.RoundTrip(t, &MigrationReport{}))
}

func FuzzDecodeReport(f *testing.F) {
	f.Add(populatedReport().Encode())
	f.Add((&MigrationReport{}).Encode())
	f.Add([]byte{})
	reportForm.Fuzz(f)
}

// TestWireSizesPinned: a segment's length is virtual wire time, so a layout
// change must show up as a diff here (and in DESIGN §10's table).
func TestWireSizesPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		form string
		got  int
		want int
	}{
		{"MigrationReport, three rounds", len(populatedReport().Encode()), 209},
		{"MigrationReport, zero", len((&MigrationReport{}).Encode()), 119},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}

	// The segment that crosses inside the freeze window, taken from a live
	// guest rather than built by hand: tex four seconds into its run, as
	// the golden-report scenario migrates it.
	c := boot(t, Options{Workstations: 3, Seed: 7})
	var job *Job
	var err error
	c.Node(1).Agent(func(a *Agent) { job, err = a.Exec("tex", nil, "") })
	c.Run(4 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n, lh := c.FindProgram(job.LHID)
	n.Host.Freeze(lh)
	const want = 187
	if got := len(n.Host.SnapshotKernelState(lh).Encode()); got != want || got > packet.InlineSegMax/4 {
		t.Errorf("LHState of a running tex: %d bytes, pinned at %d (inline limit %d)", got, want, packet.InlineSegMax)
	}
}
