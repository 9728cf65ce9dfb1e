// Batch inference: run whole applications concurrently. This is the shape
// of the evaluation workloads (internal/exper, `sherlock eval`): eight
// campaigns with no data dependencies between them, each internally
// parallel across its tests.
package core

import (
	"context"
	"errors"
	"fmt"

	"sherlock/internal/prog"
)

// InferAll runs one inference campaign per application, at most
// cfg.Parallelism campaigns concurrently (each campaign additionally
// parallelizes its own per-test runs). The result slice is indexed like
// apps; an application whose campaign failed has a nil entry and its
// error — wrapped with the application name — appears in the returned
// errors.Join aggregate. ctx cancellation stops queued campaigns from
// starting and aborts running ones between executions.
func InferAll(ctx context.Context, apps []*prog.Program, cfg Config) ([]*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid config: %w", err)
	}
	results := make([]*Result, len(apps))
	errs := make([]error, len(apps))
	forEach(len(apps), cfg.workers(), func(i int) {
		res, err := Infer(ctx, apps[i], cfg)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", apps[i].Name, err)
			return
		}
		results[i] = res
	})
	return results, errors.Join(errs...)
}
