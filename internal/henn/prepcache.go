package henn

import (
	"sync"

	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
)

// prepCache is the per-engine preparation cache Plan, RNSPlan and
// ShardedPlan share: one lowered, optimized, plaintext-pre-encoded graph
// plus its optimizer outcome per engine. The zero value is ready to use.
type prepCache struct {
	mu      sync.Mutex
	entries map[Engine]prepEntry
}

type prepEntry struct {
	pr  *exec.Prepared
	res *opt.Result
}

// get returns e's entry, building it on first use: the plan is lowered
// for e with lower, optimized with o, and pre-encoded on e.
func (c *prepCache) get(e Engine, lower func(Engine) (*ir.Graph, error), o *opt.Options) (prepEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en, ok := c.entries[e]; ok {
		telPrepare(true)
		return en, nil
	}
	telPrepare(false)
	res, err := lowerOptimized(e, lower, o)
	if err != nil {
		return prepEntry{}, err
	}
	pr, err := exec.Prepare(e, res.Graph)
	if err != nil {
		return prepEntry{}, err
	}
	if c.entries == nil {
		c.entries = map[Engine]prepEntry{}
	}
	en := prepEntry{pr: pr, res: res}
	c.entries[e] = en
	return en, nil
}

// lowerOptimized lowers a plan for e with lower and runs the optimizer
// configured by o, recording its pass metrics.
func lowerOptimized(e Engine, lower func(Engine) (*ir.Graph, error), o *opt.Options) (*opt.Result, error) {
	g, err := lower(e)
	if err != nil {
		return nil, err
	}
	res, err := opt.Optimize(e, g, o)
	if err != nil {
		return nil, err
	}
	telOptimize(res)
	return res, nil
}
