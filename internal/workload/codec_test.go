package workload

import (
	"testing"

	"vsystem/internal/image"
	"vsystem/internal/vid/wiretest"
)

var specForm = wiretest.Form[Spec]{Encode: (*Spec).Encode, Decode: DecodeSpec}

func TestSpecWireForm(t *testing.T) {
	tex, _ := PaperSpec("tex")
	tex.OutputEveryMs = 500
	specForm.Malformed(t, specForm.RoundTrip(t, &tex))
	specForm.Malformed(t, specForm.RoundTrip(t, &Spec{}))
}

// Every paper program's blob survives the trip through its image.
func TestPaperSpecsRoundTrip(t *testing.T) {
	for _, s := range PaperSpecs() {
		specForm.RoundTrip(t, &s)
	}
}

// TestPaperImageSizesAreArithmetic: Size() no longer builds the padded file
// to measure it, so it is held to len(Encode()) on the images the
// experiments install — their stored sizes are load time.
func TestPaperImageSizesAreArithmetic(t *testing.T) {
	for _, img := range PaperImages() {
		if got, want := img.Size(), len(img.Encode()); got != want {
			t.Errorf("%s: Size() = %d, len(Encode()) = %d", img.Name, got, want)
		}
	}
}

func FuzzDecodeSpec(f *testing.F) {
	tex, _ := PaperSpec("tex")
	f.Add(tex.Encode())
	f.Add((&Spec{}).Encode())
	f.Add([]byte{})
	specForm.Fuzz(f)
}

// TestWireSizesPinned: the blob is loaded with the image and the image's
// stored size is load time, so a layout change must show up as a diff here
// (and in DESIGN §10's table). The image row is tex as the experiments
// install it; it moves with either layout.
func TestWireSizesPinned(t *testing.T) {
	tex, _ := PaperSpec("tex")
	for _, c := range []struct {
		form string
		got  int
		want int
	}{
		{"Spec, tex", len(tex.Encode()), 45},
		{"Spec, zero", len((&Spec{}).Encode()), 42},
		{"Image, tex without its padding", Image(tex, 0).Size(), 84},
		{"Image, zero", (&image.Image{}).Size(), 24},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
}
