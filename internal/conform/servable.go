package conform

import (
	"fmt"
	"slices"

	"segbus/internal/core"
	"segbus/internal/dsl"
	"segbus/internal/psdf"
	"segbus/internal/realplat"
	"segbus/internal/schema"
)

// ServableCases returns the first n cases of the seed's generator
// stream that a serving stack can actually estimate: their canonical
// schemes render, survive the XML round trip (schema.ParsePSDF) and
// pass core.Preflight. POST /estimate answers 200 for each of them, so
// load harnesses built on them can treat any non-200 as a defect
// instead of filtering expected rejections at request time.
//
// Cases with a flow to the system output are skipped although they
// serve, so that each seed keeps selecting the corpus it selected
// before their schemes parsed: the load harnesses' and the serving
// benchmark's baselines were measured on it.
//
// The stream is deterministic per (seed, corpus): the same arguments
// always select the same cases in the same order. corpus may be nil.
// Roughly three generated cases in four are servable; the scan is
// capped, and falling short of n inside the cap is an error (a seed
// pathologically starved of servable cases should fail loudly, not
// truncate silently).
func ServableCases(seed int64, n int, corpus []*dsl.Document) ([]*Case, error) {
	if n <= 0 {
		return nil, fmt.Errorf("conform: ServableCases needs n > 0, got %d", n)
	}
	g := NewGenerator(seed, corpus)
	out := make([]*Case, 0, n)
	maxAttempts := 50*n + 200
	for attempt := 0; attempt < maxAttempts && len(out) < n; attempt++ {
		c := g.Next()
		c.refined = realplat.DefaultOverheads
		if slices.ContainsFunc(c.Doc.Model.Flows(), func(f psdf.Flow) bool { return f.Target == psdf.SystemOutput }) {
			continue
		}
		psdfXML, _, err := c.Schemes()
		if err != nil {
			continue
		}
		if _, err := schema.ParsePSDF(psdfXML); err != nil {
			continue // inexpressible in the XML round trip
		}
		if core.Preflight(c.Doc.Model, c.Doc.Platform).HasErrors() {
			continue
		}
		out = append(out, c)
	}
	if len(out) < n {
		return nil, fmt.Errorf("conform: only %d/%d servable cases in %d attempts (seed %d)", len(out), n, maxAttempts, seed)
	}
	return out, nil
}
