// Command app exercises the cases a name-matching reachability scan gets
// wrong.
package main

import (
	"errors"
	"fmt"

	"reach/codec"
)

// called and uncalled share a method name; only called's is called.
type called struct{}

func (called) Size() int { return 1 }

type uncalled struct{}

func (uncalled) Size() int { return 2 }

// wrapError's Unwrap is reached only through errors.Is.
type wrapError struct{ err error }

func (e wrapError) Error() string { return "wrapped: " + e.err.Error() }

func (e wrapError) Unwrap() error { return e.err }

// byteCodec implements codec.Codec[byte], an instantiation no code names.
type byteCodec struct{}

func (byteCodec) Encode(v byte) []byte { return []byte{v} }

func (byteCodec) Decode(b []byte) byte { return b[0] }

var errBase = errors.New("base")

func main() {
	fmt.Println(called{}.Size(), uncalled{})
	var err error = wrapError{errBase}
	fmt.Println(errors.Is(err, errBase))
	fmt.Println(codec.NewStore(byte(7)).RoundTrip(byteCodec{}))
}
