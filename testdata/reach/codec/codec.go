// Package codec declares a generic interface that its callers instantiate
// only implicitly, through the methods of a generic type.
package codec

// Codec translates values to and from bytes.
type Codec[V any] interface {
	Encode(v V) []byte
	Decode(b []byte) V
}

// Store holds one value.
type Store[V any] struct{ v V }

// NewStore returns a Store holding v.
func NewStore[V any](v V) *Store[V] { return &Store[V]{v: v} }

// RoundTrip encodes the held value with c and decodes it back.
func (s *Store[V]) RoundTrip(c Codec[V]) V { return c.Decode(c.Encode(s.v)) }

// Load returns the held value; nothing calls it.
func (s *Store[V]) Load() V { return s.v }

// Unused is called by nothing.
func Unused() {}
