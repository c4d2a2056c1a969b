package traffic

import (
	"errors"
	"fmt"
)

// The traffic tables' consistency checks: every law present with a positive
// mean. The tables are constants, so only the tests run them.

// ErrBadSpec reports an invalid flow or model specification.
var ErrBadSpec = errors.New("traffic: invalid specification")

// Validate checks both laws exist and have positive means.
func (f FlowSpec) Validate() error {
	if f.Size == nil || f.IAT == nil {
		return fmt.Errorf("%w: flow %q missing laws", ErrBadSpec, f.Name)
	}
	if !(f.Size.Mean() > 0) || !(f.IAT.Mean() > 0) {
		return fmt.Errorf("%w: flow %q nonpositive means", ErrBadSpec, f.Name)
	}
	return nil
}

// Validate checks the spec.
func (s ServerSpec) Validate() error {
	if s.PacketSize == nil || s.IAT == nil {
		return fmt.Errorf("%w: server spec missing laws", ErrBadSpec)
	}
	if !(s.PacketSize.Mean() > 0) || !(s.IAT.Mean() > 0) {
		return fmt.Errorf("%w: server spec nonpositive means", ErrBadSpec)
	}
	return nil
}

// Validate checks every component.
func (m Model) Validate() error {
	if err := m.Server.Validate(); err != nil {
		return fmt.Errorf("%s: %w", m.Name, err)
	}
	if len(m.Client) == 0 {
		return fmt.Errorf("%w: %s has no client flows", ErrBadSpec, m.Name)
	}
	for _, f := range m.Client {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
	}
	return nil
}
