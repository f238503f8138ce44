package analysis

// Analyzers returns every project analyzer, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		newNodeterminism(),
		newMaporder(),
		newCollectivesym(),
		newSeedflow(),
	}
}
