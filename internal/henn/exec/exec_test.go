package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cnnhe/internal/henn/ir"
)

// fakeCt/fakePt evaluate the graph over plain float vectors so scheduler
// behaviour (ordering, hoisting, freeing, parallelism) is testable
// without a CKKS backend.
type fakeCt struct {
	v     []float64
	level int
	scale float64
}

type fakePt struct {
	v     []float64
	level int
	scale float64
}

type fakeEngine struct {
	mu      sync.Mutex
	quiet   bool // skip call logging (keeps benchmark memory flat)
	calls   []string
	stages  []string
	panicOn string
}

func (f *fakeEngine) log(op string) {
	if f.quiet {
		return
	}
	f.mu.Lock()
	f.calls = append(f.calls, op)
	panicOn := f.panicOn
	f.mu.Unlock()
	if panicOn == op {
		panic(errors.New("fake: induced failure in " + op))
	}
}

func (f *fakeEngine) BeginStage(name string) {
	f.mu.Lock()
	f.stages = append(f.stages, name)
	f.mu.Unlock()
}

func (f *fakeEngine) Name() string              { return "fake" }
func (f *fakeEngine) Slots() int                { return 4 }
func (f *fakeEngine) MaxLevel() int             { return 3 }
func (f *fakeEngine) Scale() float64            { return 1 }
func (f *fakeEngine) QiFloat(level int) float64 { return 2 }

func (f *fakeEngine) EncryptVec(values []float64) ir.Ct {
	f.log("EncryptVec")
	v := make([]float64, f.Slots())
	copy(v, values)
	return &fakeCt{v: v, level: f.MaxLevel(), scale: f.Scale()}
}

func (f *fakeEngine) DecryptVec(ct ir.Ct) []float64 { return ct.(*fakeCt).v }
func (f *fakeEngine) Level(ct ir.Ct) int            { return ct.(*fakeCt).level }
func (f *fakeEngine) ScaleOf(ct ir.Ct) float64      { return ct.(*fakeCt).scale }

func (f *fakeEngine) lift(ct ir.Ct, op string) *fakeCt {
	f.log(op)
	c := ct.(*fakeCt)
	v := make([]float64, len(c.v))
	copy(v, c.v)
	return &fakeCt{v: v, level: c.level, scale: c.scale}
}

func (f *fakeEngine) Add(a, b ir.Ct) ir.Ct {
	out := f.lift(a, "Add")
	for i, x := range b.(*fakeCt).v {
		out.v[i] += x
	}
	return out
}

func (f *fakeEngine) AddPlainVec(ct ir.Ct, v []float64) ir.Ct {
	out := f.lift(ct, "AddPlainVec")
	for i := range v {
		out.v[i] += v[i]
	}
	return out
}

func (f *fakeEngine) AddPlainVecCached(ct ir.Ct, key string, v []float64) ir.Ct {
	return f.AddPlainVec(ct, v)
}

func (f *fakeEngine) MulPlainVecAtScale(ct ir.Ct, v []float64, scale float64) ir.Ct {
	out := f.lift(ct, "MulPlainVecAtScale")
	for i := range out.v {
		if i < len(v) {
			out.v[i] *= v[i]
		} else {
			out.v[i] = 0
		}
	}
	out.scale *= scale
	return out
}

func (f *fakeEngine) MulPlainVecCached(ct ir.Ct, key string, v []float64, scale float64) ir.Ct {
	return f.MulPlainVecAtScale(ct, v, scale)
}

func (f *fakeEngine) MulRelin(a, b ir.Ct) ir.Ct {
	out := f.lift(a, "MulRelin")
	bc := b.(*fakeCt)
	for i := range out.v {
		out.v[i] *= bc.v[i]
	}
	out.scale *= bc.scale
	return out
}

func (f *fakeEngine) MulInt(ct ir.Ct, n int64) ir.Ct {
	out := f.lift(ct, "MulInt")
	for i := range out.v {
		out.v[i] *= float64(n)
	}
	return out
}

func (f *fakeEngine) Rescale(ct ir.Ct) ir.Ct {
	out := f.lift(ct, "Rescale")
	out.scale /= f.QiFloat(out.level)
	out.level--
	return out
}

func (f *fakeEngine) DropLevel(ct ir.Ct, n int) ir.Ct {
	out := f.lift(ct, "DropLevel")
	out.level -= n
	return out
}

func rotated(v []float64, k int) []float64 {
	n := len(v)
	out := make([]float64, n)
	for i := range v {
		out[i] = v[(i+k%n+n)%n]
	}
	return out
}

func (f *fakeEngine) Rotate(ct ir.Ct, k int) ir.Ct {
	out := f.lift(ct, "Rotate")
	out.v = rotated(out.v, k)
	return out
}

func (f *fakeEngine) RotateMany(ct ir.Ct, ks []int) map[int]ir.Ct {
	f.log("RotateMany")
	c := ct.(*fakeCt)
	out := make(map[int]ir.Ct, len(ks))
	for _, k := range ks {
		out[k] = &fakeCt{v: rotated(c.v, k), level: c.level, scale: c.scale}
	}
	return out
}

func (f *fakeEngine) EncodeVecsAt(specs []ir.PlainSpec) []ir.Pt {
	f.log("EncodeVecsAt")
	out := make([]ir.Pt, len(specs))
	for i, s := range specs {
		out[i] = &fakePt{v: s.Values, level: s.Level, scale: s.Scale}
	}
	return out
}

func (f *fakeEngine) MulPlainPt(ct ir.Ct, pt ir.Pt) ir.Ct {
	p := pt.(*fakePt)
	out := f.lift(ct, "MulPlainPt")
	for i := range out.v {
		if i < len(p.v) {
			out.v[i] *= p.v[i]
		} else {
			out.v[i] = 0
		}
	}
	out.scale *= p.scale
	return out
}

func (f *fakeEngine) AddPlainPt(ct ir.Ct, pt ir.Pt) ir.Ct {
	p := pt.(*fakePt)
	out := f.lift(ct, "AddPlainPt")
	for i := range p.v {
		out.v[i] += p.v[i]
	}
	return out
}

func (f *fakeEngine) Recombine(args []ir.Ct, pts []ir.Pt, weights []int64) ir.Ct {
	out := f.lift(args[0], "Recombine")
	for i := range out.v {
		out.v[i] = 0
	}
	for j, a := range args {
		c := a.(*fakeCt)
		for i, x := range c.v {
			if pts != nil && pts[j] != nil {
				if p := pts[j].(*fakePt); i < len(p.v) {
					x *= p.v[i]
				} else {
					x = 0
				}
			}
			out.v[i] += float64(weights[j]) * x
		}
		if j == 0 && pts != nil && pts[0] != nil {
			out.scale *= pts[0].(*fakePt).scale
		}
	}
	return out
}

var _ ir.Engine = (*fakeEngine)(nil)

// testGraph builds, by hand, a two-stage graph exercising every executor
// path: a hoist group, standalone ops, a plaintext multiply and add, a
// squaring, a rescale, and a final recombine-free output.
//
//	stage 0: encrypt x                             (not recorded)
//	stage 1: r1 = rot(x,1); r2 = rot(x,2) [hoisted]
//	         s  = r1 + r2
//	         m  = s ⊙ w        (w = [1,2,3,4], scale 2)
//	         a  = m + b        (b = [0.5,...])
//	         y  = rescale(a·a)
func testGraph() *ir.Graph {
	g := &ir.Graph{Slots: 4, Inputs: 1, Output: 7}
	g.Stages = []ir.StageInfo{
		{Name: "encrypt", Out: 0, Record: false},
		{Name: "stage 0 (mix)", Out: 7, Record: true},
	}
	add := func(op ir.Op) int {
		op.ID = len(g.Ops)
		g.Ops = append(g.Ops, op)
		return op.ID
	}
	x := add(ir.Op{Kind: ir.OpEncrypt, Hoist: -1, Stage: 0, Level: 3, Scale: 1})
	r1 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 1, Hoist: 0, Stage: 1, Level: 3, Scale: 1})
	r2 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 2, Hoist: 0, Stage: 1, Level: 3, Scale: 1})
	s := add(ir.Op{Kind: ir.OpAdd, Args: []int{r1, r2}, Hoist: -1, Stage: 1, Level: 3, Scale: 1})
	m := add(ir.Op{Kind: ir.OpMulPlain, Args: []int{s}, Hoist: -1, Stage: 1,
		Plain: []float64{1, 2, 3, 4}, PlainKey: "w", PtScale: 2, Level: 3, Scale: 2})
	a := add(ir.Op{Kind: ir.OpAddPlain, Args: []int{m}, Hoist: -1, Stage: 1,
		Plain: []float64{0.5, 0.5, 0.5, 0.5}, PlainKey: "b", PtScale: 2, Level: 3, Scale: 2})
	sq := add(ir.Op{Kind: ir.OpMulRelin, Args: []int{a, a}, Hoist: -1, Stage: 1, Level: 3, Scale: 4})
	add(ir.Op{Kind: ir.OpRescale, Args: []int{sq}, Hoist: -1, Stage: 1, Level: 2, Scale: 2})
	g.Hoists = [][]int{{r1, r2}}
	return g
}

// wantOutput mirrors testGraph over plain floats.
func wantOutput(x []float64) []float64 {
	r1, r2 := rotated(x, 1), rotated(x, 2)
	w := []float64{1, 2, 3, 4}
	out := make([]float64, 4)
	for i := range out {
		v := (r1[i]+r2[i])*w[i] + 0.5
		out[i] = v * v
	}
	return out
}

func runGraph(t *testing.T, e *fakeEngine, opts Options) (*Result, []float64) {
	t.Helper()
	g := testGraph()
	p, err := Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, e.DecryptVec(res.Out)
}

func TestSequentialRun(t *testing.T) {
	e := &fakeEngine{}
	res, got := runGraph(t, e, Options{})
	if want := wantOutput([]float64{1, 2, 3, 4}); !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
	if len(res.Stages) != 1 {
		t.Fatalf("%d stage rows, want 1 (encrypt is unrecorded)", len(res.Stages))
	}
	row := res.Stages[0]
	if row.Name != "stage 0 (mix)" || row.Level != 2 || row.Scale != 2 || row.Ops != 7 {
		t.Fatalf("stage row %+v", row)
	}
	// One hoisted RotateMany, no standalone Rotate, AOT plain ops only.
	joined := strings.Join(e.calls, ",")
	if strings.Contains(joined, "Rotate,") && !strings.Contains(joined, "RotateMany") {
		t.Fatalf("hoist group not executed via RotateMany: %v", e.calls)
	}
	for _, c := range e.calls {
		if c == "MulPlainVecCached" || c == "AddPlainVecCached" {
			t.Fatalf("lazy cached path used: %v", e.calls)
		}
	}
	wantCalls := []string{"EncodeVecsAt", "EncryptVec", "RotateMany", "Add", "MulPlainPt", "AddPlainPt", "MulRelin", "Rescale"}
	if !reflect.DeepEqual(e.calls, wantCalls) {
		t.Fatalf("calls %v, want %v", e.calls, wantCalls)
	}
	if !reflect.DeepEqual(e.stages, []string{"encrypt", "stage 0 (mix)"}) {
		t.Fatalf("stage announcements %v", e.stages)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	_, seq := runGraph(t, &fakeEngine{}, Options{})
	_, par := runGraph(t, &fakeEngine{}, Options{Workers: 4})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel %v != sequential %v", par, seq)
	}
}

func TestPlaintextDedup(t *testing.T) {
	g := testGraph()
	// Reference the same keyed constant twice: still one encode spec.
	last := g.Ops[g.Output]
	dup := ir.Op{ID: len(g.Ops), Kind: ir.OpMulPlain, Args: []int{g.Output}, Hoist: -1, Stage: 1,
		Plain: []float64{1, 2, 3, 4}, PlainKey: "w", PtScale: 2, Level: last.Level, Scale: last.Scale * 2}
	g.Ops = append(g.Ops, dup)
	g.Output = dup.ID
	g.Stages[1].Out = dup.ID
	e := &fakeEngine{}
	p, err := Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	// "w" appears twice but at different levels (3 vs 2): two specs. Add a
	// true duplicate at the same (key, level, scale) and re-prepare.
	if p.pts[4] == p.pts[dup.ID] {
		t.Fatal("distinct (level, scale) encodings were merged")
	}
	tri := ir.Op{ID: len(g.Ops), Kind: ir.OpMulPlain, Args: []int{dup.ID}, Hoist: -1, Stage: 1,
		Plain: []float64{1, 2, 3, 4}, PlainKey: "w", PtScale: 2, Level: dup.Level, Scale: dup.Scale * 2}
	g.Ops = append(g.Ops, tri)
	g.Output = tri.ID
	g.Stages[1].Out = tri.ID
	p, err = Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.pts[dup.ID] != p.pts[tri.ID] {
		t.Fatal("same (key, level, scale) encoded twice")
	}
}

// TestRecombineFactors: a Recombine with plaintext factors executes as
// one engine call, its factors share the content-digest dedup with
// ordinary operands (a factor equal to a MulPlain operand at the same
// (level, scale) encodes once), and bare terms get no plaintext.
func TestRecombineFactors(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	v := []float64{-1, 0.5, 2, 1}
	g := &ir.Graph{Slots: 4, Inputs: 1, Output: 3}
	g.Stages = []ir.StageInfo{{Name: "encrypt", Out: 0}, {Name: "stage 0 (dot)", Out: 3, Record: true}}
	g.Ops = []ir.Op{
		{ID: 0, Kind: ir.OpEncrypt, Hoist: -1, Level: 3, Scale: 1},
		{ID: 1, Kind: ir.OpRotate, Args: []int{0}, K: 1, Hoist: 0, Stage: 1, Level: 3, Scale: 1},
		{ID: 2, Kind: ir.OpMulPlain, Args: []int{0}, Plain: w, PtScale: 2, Hoist: -1, Stage: 1, Level: 3, Scale: 2},
		{ID: 3, Kind: ir.OpRecombine, Args: []int{0, 1, 2}, Weights: []int64{1, 1, 1}, Hoist: -1, Stage: 1,
			ArgPlain: [][]float64{w, v, nil}, ArgPtScale: []float64{2, 2, 0}, Level: 3, Scale: 2},
	}
	g.Hoists = [][]int{{1}}
	e := &fakeEngine{}
	p, err := Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.termPts[3][0] != p.pts[2] {
		t.Fatal("factor equal to a MulPlain operand was encoded twice")
	}
	if p.termPts[3][1] == nil || p.termPts[3][2] != nil {
		t.Fatalf("factor handles %v, want [w v nil]", p.termPts[3])
	}
	x := []float64{1, 2, 3, 4}
	res, err := p.Run(context.Background(), [][]float64{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rotated(x, 1)
	got := e.DecryptVec(res.Out)
	for i := range x {
		if want := 2*x[i]*w[i] + r[i]*v[i]; got[i] != want {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
	if got := e.ScaleOf(res.Out); got != 2 {
		t.Fatalf("result scale %v, want 2", got)
	}
	wantCalls := []string{"EncodeVecsAt", "EncryptVec", "RotateMany", "MulPlainPt", "Recombine"}
	if !reflect.DeepEqual(e.calls, wantCalls) {
		t.Fatalf("engine calls %v, want %v", e.calls, wantCalls)
	}
}

func TestRefCountFreesSlots(t *testing.T) {
	g := testGraph()
	p, err := Prepare(&fakeEngine{}, g)
	if err != nil {
		t.Fatal(err)
	}
	rs := p.newRunState()
	cts, _, _, err := p.EncryptInputs(context.Background(), [][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range p.encryptOps {
		rs.slots[id] = cts[i]
	}
	if err := rs.runSequential(context.Background(), &Result{}); err != nil {
		t.Fatal(err)
	}
	for i := range rs.slots {
		if i == g.Output {
			if rs.slots[i] == nil {
				t.Fatal("output was freed")
			}
			continue
		}
		if rs.slots[i] != nil {
			t.Fatalf("intermediate op %d still live after last use", i)
		}
	}
}

func TestRunFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := &fakeEngine{panicOn: "MulRelin"}
		p, err := Prepare(e, testGraph())
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}}, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: failure not surfaced", workers)
		}
		if !strings.Contains(err.Error(), "induced failure") {
			t.Fatalf("workers=%d: error %v does not carry the cause", workers, err)
		}
		if res.FailedStage != "stage 0 (mix)" {
			t.Fatalf("workers=%d: failed stage %q", workers, res.FailedStage)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ctx, [][]float64{{1, 2, 3, 4}}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if res.FailedStage == "" {
		t.Fatal("cancellation did not name a stage")
	}
}

func TestBadInputCount(t *testing.T) {
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.EncryptInputs(context.Background(), nil); err == nil {
		t.Fatal("zero inputs accepted for a 1-input graph")
	}
}

func TestStatsNoise(t *testing.T) {
	// fakeEngine is not noiseAware: rows carry NaN, like the legacy path.
	res, _ := runGraph(t, &fakeEngine{}, Options{})
	if !math.IsNaN(res.Stages[0].NoiseBits) {
		t.Fatalf("noise bits %v, want NaN", res.Stages[0].NoiseBits)
	}
	if res.Stages[0].Duration <= 0 {
		t.Fatal("stage duration not measured")
	}
}

func TestPrepareRejectsInvalidGraph(t *testing.T) {
	g := testGraph()
	g.Ops[3].Args = []int{5, 1} // forward reference: not topological
	if _, err := Prepare(&fakeEngine{}, g); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func init() {
	// Guard against fixture drift: the hand-built graph must stay valid.
	if err := testGraph().Validate(); err != nil {
		panic(fmt.Sprintf("test fixture invalid: %v", err))
	}
}
