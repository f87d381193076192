package kernel

import (
	"bytes"
	"testing"

	"vsystem/internal/mem"
)

// FuzzDecodePageRun hammers the destination kernel server's run parser
// with arbitrary segments: it must either reject them with an error or
// decode a self-consistent run — never panic, never return data of the
// wrong shape. Valid decodes must re-encode to an equivalent run
// (round-trip stability), so a corrupted length field can't smuggle
// misaligned page bodies past the bounds checks.
func FuzzDecodePageRun(f *testing.F) {
	pages, data := runPages(0, 5, func(i int) bool { return i%2 == 0 })
	f.Add(AppendPageRun(nil, 3, pages, data))
	allZero, zdata := runPages(2, 3, func(int) bool { return true })
	f.Add(AppendPageRun(nil, 9, allZero, zdata))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0})

	f.Fuzz(func(t *testing.T, seg []byte) {
		space, pages, data, err := DecodePageRun(seg)
		if err != nil {
			return
		}
		if len(pages) != len(data) || len(pages) > MaxRunPages {
			t.Fatalf("decoded %d pages, %d data entries", len(pages), len(data))
		}
		for i, d := range data {
			if len(d) != mem.PageSize {
				t.Fatalf("page %d decoded to %d bytes", pages[i], len(d))
			}
		}
		reseg := AppendPageRun(nil, space, pages, data)
		s2, p2, d2, err := DecodePageRun(reseg)
		if err != nil {
			t.Fatalf("re-encoded run rejected: %v", err)
		}
		if s2 != space || len(p2) != len(pages) {
			t.Fatalf("round trip changed shape: space %d→%d, %d→%d pages", space, s2, len(pages), len(p2))
		}
		for i := range pages {
			if p2[i] != pages[i] || !bytes.Equal(d2[i], data[i]) {
				t.Fatalf("round trip changed page %d", pages[i])
			}
		}
	})
}
