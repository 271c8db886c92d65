package lint

// All returns the full analyzer suite in the order the driver runs it.
// The allow validator runs first so a malformed annotation is reported
// before any finding it failed to silence.
func All() []*Analyzer {
	return []*Analyzer{
		AllowAnalyzer,
		Pindiscipline,
		Lockorder,
	}
}

// knownAnalyzers is the set of names //lint:allow may cite. The allow
// validator rejects any other name, so a typo'd annotation fails the
// build instead of silently disabling nothing.
var knownAnalyzers = map[string]bool{
	Pindiscipline.Name: true,
	Lockorder.Name:     true,
}

// ByName resolves one analyzer, for the driver's -run flag.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
