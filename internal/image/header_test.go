package image_test

import (
	"reflect"
	"testing"

	"vsystem/internal/image"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// TestHeaderDecodeEqualsFullDecodeOnPaperImages: for each of the paper's
// eight programs — files of 25 to 220 KB, all but a hundred-odd bytes of
// each padding — what the program manager keeps of the file decodes to the
// image the whole file decodes to.
func TestHeaderDecodeEqualsFullDecodeOnPaperImages(t *testing.T) {
	imgs := workload.PaperImages()
	if len(imgs) != 8 {
		t.Fatalf("%d paper images, want 8", len(imgs))
	}
	for _, im := range imgs {
		file := im.Encode()
		whole, err := image.Decode(file)
		if err != nil {
			t.Fatalf("%s: %v", im.Name, err)
		}
		keep := image.HeaderLen(file[:min(len(file), vid.SegMax)])
		if keep != uint64(len(file))-uint64(im.Pad) {
			t.Fatalf("%s: header of %d bytes in a %d-byte file padded by %d", im.Name, keep, len(file), im.Pad)
		}
		kept, err := image.DecodeHeader(file[:keep:keep], len(file))
		if err != nil || !reflect.DeepEqual(kept, whole) || !reflect.DeepEqual(kept, im) {
			t.Fatalf("%s: header-only decode %+v (%v), whole-file decode %+v", im.Name, kept, err, whole)
		}
	}
}
