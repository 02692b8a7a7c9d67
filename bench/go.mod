// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive points at the repository it measures,
// and the module path keeps the repository's internal packages importable.
module trustedcells/bench

go 1.22

require trustedcells v0.0.0

replace trustedcells => ../
