package image

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"

	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var imageForm = wiretest.Form[Image]{Encode: (*Image).Encode, Decode: Decode}

// headerForm decodes a stored file the way the program manager loads one:
// the first 32 KB read says how long the header is, only that much of the
// file is kept, and the decoder is told how many bytes arrived.
var headerForm = wiretest.Form[Image]{Encode: (*Image).Encode, Decode: decodeAsLoaded}

func decodeAsLoaded(b []byte) (*Image, error) {
	first := b[:min(len(b), vid.SegMax)]
	keep := min(HeaderLen(first), uint64(len(b)))
	return DecodeHeader(b[:keep:keep], len(b))
}

func populatedImage() *Image {
	return &Image{
		Name: "cc68", Kind: "vvm", Code: []byte{1, 2, 3, 4}, Data: []byte("initialized"),
		SpaceSize: 256 * 1024, Pad: 300,
	}
}

// TestImageWireForm: the stored file is exactly its header plus its
// padding. Cut short anywhere — inside the padding too — or with anything
// appended, it is not an image; neither is a file whose length words
// promise more than is there.
func TestImageWireForm(t *testing.T) {
	im := populatedImage()
	seg := imageForm.RoundTrip(t, im)
	if len(seg) != im.headerLen()+int(im.Pad) {
		t.Fatalf("stored %d bytes, want header %d + pad %d", len(seg), im.headerLen(), im.Pad)
	}
	if HeaderLen(seg) != uint64(im.headerLen()) || HeaderLen(seg[:fixedLen+len(im.Name)+len(im.Kind)]) != uint64(im.headerLen()) {
		t.Fatalf("HeaderLen = %d, want %d from the whole file and from its names alone", HeaderLen(seg), im.headerLen())
	}
	if n := HeaderLen(seg[:fixedLen+len(im.Name)+len(im.Kind)-1]); n < uint64(len(seg)) {
		t.Fatalf("HeaderLen of a prefix that ends inside the names = %d: whoever asks must keep everything", n)
	}
	for name, form := range map[string]wiretest.Form[Image]{"whole file": imageForm, "header only": headerForm} {
		form.RoundTrip(t, im)
		form.Malformed(t, seg)
		form.Malformed(t, form.RoundTrip(t, &Image{}))

		for word, off := range map[string]int{"pad": 8, "code length": 12, "data length": 16} {
			bad := bytes.Clone(seg)
			binary.LittleEndian.PutUint32(bad[off:], 0xFFFFFFFF)
			if _, err := form.Decode(bad); err == nil {
				t.Errorf("%s: decoded a file whose %s word says 4 GB", name, word)
			}
		}
		bad := bytes.Clone(seg)
		bad[0] ^= 1
		if _, err := form.Decode(bad); err == nil {
			t.Errorf("%s: decoded a file with the wrong magic word", name)
		}
	}
}

// TestStoredSizeMustBeHeaderPlusPad: the header alone is enough to decode
// from, but only together with the size the file really has — one byte
// more or less than header + Pad, in the count or in the Pad word, and it
// is not this image's file.
func TestStoredSizeMustBeHeaderPlusPad(t *testing.T) {
	im := populatedImage()
	seg := im.Encode()
	hdr := seg[:im.headerLen()]
	if got, err := DecodeHeader(hdr, len(seg)); err != nil || !reflect.DeepEqual(got, im) {
		t.Fatalf("header with the true size: %+v, %v", got, err)
	}
	for _, size := range []int{len(seg) - 1, len(seg) + 1, len(hdr) - 1, 0, -1} {
		if _, err := DecodeHeader(hdr, size); err == nil {
			t.Errorf("decoded a %d-byte header + %d pad as a file of %d bytes", len(hdr), im.Pad, size)
		}
	}
	for _, d := range []uint32{im.Pad - 1, im.Pad + 1} {
		bad := bytes.Clone(hdr)
		binary.LittleEndian.PutUint32(bad[8:], d)
		if _, err := DecodeHeader(bad, len(seg)); err == nil {
			t.Errorf("decoded a %d-byte file whose header declares pad %d, not %d", len(seg), d, im.Pad)
		}
	}
	if _, err := DecodeHeader(hdr[:len(hdr)-1], len(seg)); err == nil {
		t.Error("decoded from a header one byte short of its data")
	}
}

func TestSizeIsArithmetic(t *testing.T) {
	for _, im := range []*Image{populatedImage(), {}, {Name: "p", Pad: 100 * 1024}} {
		if im.Size() != len(im.Encode()) {
			t.Errorf("%q: Size() = %d, len(Encode()) = %d", im.Name, im.Size(), len(im.Encode()))
		}
	}
}

// FuzzDecode: the padding's bytes are the one part of the file Decode does
// not read, so an accepted file is compared with its re-encoding up to the
// padding, and by length beyond it.
func FuzzDecode(f *testing.F) {
	f.Add(populatedImage().Encode())
	f.Add((&Image{}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		im, err := Decode(b)
		if loaded, lerr := decodeAsLoaded(b); (err == nil) != (lerr == nil) || !reflect.DeepEqual(im, loaded) {
			t.Fatalf("the two entry points disagree:\nwhole file:  %+v, %v\nheader only: %+v, %v", im, err, loaded, lerr)
		}
		if err != nil {
			return
		}
		again := im.Encode()
		if len(again) != len(b) || !bytes.Equal(again[:im.headerLen()], b[:im.headerLen()]) {
			t.Fatalf("accepted a file that is not its image's encoding:\n got %x\nwant %x", again, b)
		}
	})
}

func TestImageRoundTrip(t *testing.T) {
	im := &Image{
		Name:      "cc68",
		Kind:      "vvm",
		Code:      []byte{1, 2, 3, 4},
		Data:      []byte("initialized"),
		SpaceSize: 256 * 1024,
	}
	got, err := Decode(im.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, im) {
		t.Fatalf("got %+v", got)
	}
}

func TestImagePadGrowsFileOnly(t *testing.T) {
	small := &Image{Name: "p", Kind: "vvm", Code: []byte{1}}
	big := &Image{Name: "p", Kind: "vvm", Code: []byte{1}, Pad: 100 * 1024}
	if big.Size() < small.Size()+100*1024 {
		t.Fatalf("pad ignored: %d vs %d", big.Size(), small.Size())
	}
	got, err := Decode(big.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "p" || len(got.Code) != 1 {
		t.Fatal("padded image decoded wrong")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not an image")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
}

func TestEnvBlockRoundTrip(t *testing.T) {
	e := &EnvBlock{
		Stdout:     vid.NewPID(3, 18),
		FileServer: vid.NewPID(9, 16),
		Args:       []string{"cc68", "-O", "main.c"},
		HeapBase:   0x9000,
	}
	got, err := DecodeEnv(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v, want %+v", got, e)
	}
}

func TestEnvBlockNoArgs(t *testing.T) {
	e := &EnvBlock{Stdout: vid.NewPID(1, 16)}
	got, err := DecodeEnv(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Args) != 0 || got.Stdout != e.Stdout {
		t.Fatalf("got %+v", got)
	}
}

func TestEnvBlockBadMagic(t *testing.T) {
	b := (&EnvBlock{}).Encode()
	b[0] ^= 0xFF
	if _, err := DecodeEnv(b); err == nil {
		t.Fatal("bad magic decoded")
	}
	if _, err := DecodeEnv([]byte{1, 2}); err == nil {
		t.Fatal("short block decoded")
	}
}

func TestQuickEnvArgsRoundTrip(t *testing.T) {
	f := func(stdout, fs uint32, heap uint32, rawArgs [][]byte) bool {
		var args []string
		for _, a := range rawArgs {
			// NULs are the arg separator; strip them from inputs.
			s := ""
			for _, b := range a {
				if b != 0 {
					s += string(rune(b))
				}
			}
			args = append(args, s)
		}
		e := &EnvBlock{
			Stdout:     vid.PID(stdout),
			FileServer: vid.PID(fs),
			HeapBase:   heap,
			Args:       args,
		}
		got, err := DecodeEnv(e.Encode())
		if err != nil {
			return false
		}
		if len(got.Args) != len(args) {
			return false
		}
		for i := range args {
			if got.Args[i] != args[i] {
				return false
			}
		}
		return got.Stdout == e.Stdout && got.HeapBase == heap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
