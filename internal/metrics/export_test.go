package metrics

// Name and Kind expose a family's declaration to the format tests.
func (f Family) Name() string { return table[f].name }
func (f Family) Kind() string { return table[f].kind }
