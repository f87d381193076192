package vid

import (
	"bytes"
	"encoding/gob"
)

// GobEncode serializes a structured message segment (an InitReq, a
// migration report, a registry command). It panics on an unencodable
// type — a programming error, never a data error.
func GobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// GobDecode parses a segment produced by GobEncode of a *T.
func GobDecode[T any](b []byte) (*T, error) {
	v := new(T)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return nil, err
	}
	return v, nil
}
