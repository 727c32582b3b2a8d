// Package manifest defines the declarative, versioned, JSON-serializable
// experiment-grid description layered over internal/spec: where a
// ScenarioSpec is ONE experiment, an ExperimentManifest is a whole
// reproduction grid — a base spec, plus named arms that sweep parameter
// axes (cartesian product over registry names, constants and cluster
// sizes) across seed ranges, with optional arm-to-arm dependencies
// ("baseline first"). A manifest expands server-side into deduplicated
// content-addressed jobs scheduled through the job manager, so a whole
// grid is one replayable document: same manifest ⇒ same job set ⇒ same
// byte-identical results, from memory, disk, or compute.
//
// The codec discipline exactly mirrors internal/spec: Normalize fills
// every default and is idempotent; Canonical marshals the normalized
// manifest with a fixed field order and the display name stripped; the
// SHA-256 of the canonical bytes is the manifest's identity.
package manifest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ftgcs"
	"ftgcs/internal/jobs"
	"ftgcs/internal/spec"
)

// Version is the current manifest schema version.
const Version = 1

// MaxJobs bounds how many unique jobs one manifest may expand into.
// Manifests arrive from remote clients; the cartesian product must not be
// able to enqueue unbounded work.
const MaxJobs = 512

// MaxArms bounds the number of arms.
const MaxArms = 64

// Manifest is a complete experiment grid: a base spec and a set of arms
// that vary it. The zero value of any optional field means "default".
type Manifest struct {
	// Version is the schema version; 0 is normalized to the current
	// Version.
	Version int `json:"version"`
	// Name is an optional display name, excluded from the canonical
	// encoding (like ScenarioSpec.Name): two manifests differing only in
	// Name are the same grid.
	Name string `json:"name,omitempty"`
	// Base is the spec every arm starts from. Its own Name is likewise
	// excluded from the manifest's identity.
	Base spec.ScenarioSpec `json:"base"`
	// Arms are the grid's sweeps. At least one is required. Arm names
	// ARE part of the identity: they define the dependency DAG.
	Arms []Arm `json:"arms"`
}

// Arm is one named sweep over the base spec: the cartesian product of
// its axes' values, times its seed range.
type Arm struct {
	// Name identifies the arm (unique within the manifest, required).
	Name string `json:"name"`
	// Axes are varied as a cartesian product; an arm with no axes runs
	// the base spec as-is. Axis order matters only for display names.
	Axes []Axis `json:"axes,omitempty"`
	// Seeds expands each grid point across consecutive seeds; nil means
	// one run at the base spec's seed.
	Seeds *Seeds `json:"seeds,omitempty"`
	// Replicate ≥ 2 turns each point into a replication job (seed
	// variance aggregation, see jobs.Request.Replicate).
	Replicate int `json:"replicate,omitempty"`
	// IncludeSeries attaches the recorded series to each result.
	IncludeSeries bool `json:"includeSeries,omitempty"`
	// After lists arms that must reach a terminal state before this arm
	// starts (e.g. a baseline arm first). Must form a DAG.
	After []string `json:"after,omitempty"`
}

// Axis is one swept parameter: a param name from the table below plus
// exactly one non-empty value list matching the parameter's type.
type Axis struct {
	Param   string    `json:"param"`
	Ints    []int     `json:"ints,omitempty"`
	Floats  []float64 `json:"floats,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

// Seeds is a consecutive seed range: From, From+1, …, From+Count−1.
type Seeds struct {
	From  int64 `json:"from"`
	Count int   `json:"count"`
}

// axisKind is an axis parameter's value type.
type axisKind int

const (
	kindInt axisKind = iota
	kindFloat
	kindString
)

// axisParam describes one settable parameter: its value type and how a
// value patches a spec.
type axisParam struct {
	kind   axisKind
	applyI func(*spec.ScenarioSpec, int)
	applyF func(*spec.ScenarioSpec, float64)
	applyS func(*spec.ScenarioSpec, string)
}

// params is the table of sweepable spec fields, keyed by their JSON path
// in the spec schema. "delay" names the delay adversary (like the spec
// field); the physical max delay is "physical.delay".
var paramTable = map[string]axisParam{
	"topology.name": {kind: kindString, applyS: func(s *spec.ScenarioSpec, v string) { s.Topology.Name = v }},
	"topology.size": {kind: kindInt, applyI: func(s *spec.ScenarioSpec, v int) { s.Topology.Size = v }},
	"clusters.k":    {kind: kindInt, applyI: func(s *spec.ScenarioSpec, v int) { s.Clusters.K = v }},
	"clusters.f":    {kind: kindInt, applyI: func(s *spec.ScenarioSpec, v int) { s.Clusters.F = v }},
	"physical.rho":  {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) { s.Physical.Rho = v }},
	"physical.delay": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) {
		s.Physical.Delay = v
	}},
	"physical.uncertainty": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) {
		s.Physical.Uncertainty = v
	}},
	"constants.c2": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) {
		c := constantsOf(s)
		c.C2 = v
	}},
	"constants.eps": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) {
		c := constantsOf(s)
		c.Eps = v
	}},
	"preset": {kind: kindString, applyS: func(s *spec.ScenarioSpec, v string) { s.Preset = v }},
	"drift":  {kind: kindString, applyS: func(s *spec.ScenarioSpec, v string) { s.Drift = v }},
	"delay":  {kind: kindString, applyS: func(s *spec.ScenarioSpec, v string) { s.Delay = v }},
	// attack.name value "none" clears the attack entirely (baseline arms).
	"attack.name": {kind: kindString, applyS: func(s *spec.ScenarioSpec, v string) {
		if v == "none" {
			s.Attack = nil
			return
		}
		if s.Attack == nil {
			s.Attack = &spec.Attack{}
		} else {
			a := *s.Attack
			s.Attack = &a
		}
		s.Attack.Name = v
	}},
	"attack.clusters": {kind: kindInt, applyI: func(s *spec.ScenarioSpec, v int) {
		if s.Attack == nil {
			return // no attack to scope; validated earlier
		}
		a := *s.Attack
		a.Clusters = v
		s.Attack = &a
	}},
	"horizon.seconds": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) {
		s.Horizon = spec.Horizon{Seconds: v}
	}},
	"horizon.rounds": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) {
		s.Horizon = spec.Horizon{Rounds: v}
	}},
	"sampleInterval": {kind: kindFloat, applyF: func(s *spec.ScenarioSpec, v float64) { s.SampleInterval = v }},
}

// constantsOf returns a private, non-nil Constants to mutate.
func constantsOf(s *spec.ScenarioSpec) *spec.Constants {
	if s.Constants == nil {
		s.Constants = &spec.Constants{}
	} else {
		c := *s.Constants
		s.Constants = &c
	}
	return s.Constants
}

// Params returns the sweepable parameter names, sorted (error messages,
// docs, CLI help).
func Params() []string {
	out := make([]string, 0, len(paramTable))
	for k := range paramTable {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Normalize returns a copy with every default made explicit: version,
// the normalized base spec, per-arm replicate (0 → 1) and seeds (nil →
// one run at the base seed), and a sorted After list. Idempotent; like
// spec.Normalize it is what makes the content hash stable under
// spelled-out versus omitted defaults.
func (m Manifest) Normalize() Manifest {
	n := m
	if n.Version == 0 {
		n.Version = Version
	}
	n.Base = n.Base.Normalize()
	n.Arms = append([]Arm(nil), n.Arms...)
	for i := range n.Arms {
		a := &n.Arms[i]
		a.Axes = append([]Axis(nil), a.Axes...)
		if a.Replicate < 1 {
			a.Replicate = 1
		}
		if a.Replicate > 1 {
			a.IncludeSeries = false // mirrors jobs.Request normalization
		}
		if a.Seeds == nil {
			a.Seeds = &Seeds{From: n.Base.Seed, Count: 1}
		} else {
			s := *a.Seeds
			a.Seeds = &s
		}
		if len(a.After) > 0 {
			a.After = append([]string(nil), a.After...)
			sort.Strings(a.After)
		}
	}
	return n
}

// Canonical returns the manifest's canonical encoding: normalized, with
// the manifest and base display names stripped, marshaled with fixed
// field order and shortest-float numbers.
func (m Manifest) Canonical() ([]byte, error) {
	n := m.Normalize()
	n.Name = ""
	n.Base.Name = ""
	return json.Marshal(n)
}

// Hash returns the manifest's content hash: "sha256:" + hex SHA-256 of
// the canonical encoding.
func (m Manifest) Hash() (string, error) {
	c, err := m.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// Parse decodes a manifest from JSON bytes, rejecting unknown fields.
func Parse(data []byte) (Manifest, error) {
	return Decode(bytes.NewReader(data))
}

// Decode reads one manifest from r, rejecting unknown fields.
func Decode(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("manifest: %w", err)
	}
	return m, nil
}

// Encode writes the manifest's canonical encoding followed by a newline.
func (m Manifest) Encode(w io.Writer) error {
	c, err := m.Canonical()
	if err != nil {
		return err
	}
	if _, err := w.Write(c); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// Job is one expanded, deduplicated unit of work.
type Job struct {
	// Name is the display name: "<arm>[/<param>=<value>…][/seed=N]".
	Name string `json:"name"`
	// Request is the job manager's unit of submission; its content hash
	// below is the job's identity.
	Request jobs.Request `json:"request"`
	// ID is Request's content hash.
	ID string `json:"id"`
}

// ArmPlan maps one arm to the IDs of the jobs it contains (shared jobs
// appear in every arm that produces them) and the arms it waits on.
type ArmPlan struct {
	Name   string   `json:"name"`
	After  []string `json:"after,omitempty"`
	JobIDs []string `json:"jobs"`
}

// Expansion is a manifest fully expanded: the manifest's identity, the
// deduplicated job list in first-appearance order, and the per-arm plan.
type Expansion struct {
	ManifestID string    `json:"manifestId"`
	Jobs       []Job     `json:"jobs"`
	Arms       []ArmPlan `json:"arms"`
}

// Validate checks the manifest without touching the job manager: schema
// version, arm and axis shape, the dependency DAG, the expansion budget,
// and every expanded spec against the registry (nil means
// ftgcs.DefaultRegistry). Like spec.Validate, failures name what is
// wrong and, for registry lookups, what is available.
func (m Manifest) Validate(reg *ftgcs.Registry) error {
	_, err := m.Expand(reg)
	return err
}

// Expand validates and expands the manifest into its deduplicated job
// set and arm plan. Every unique expanded spec is validated against the
// registry, so a point the model cannot build fails the expansion.
func (m Manifest) Expand(reg *ftgcs.Registry) (*Expansion, error) {
	n := m.Normalize()
	if n.Version != Version {
		return nil, fmt.Errorf("manifest: unsupported version %d (current %d)", n.Version, Version)
	}
	if len(n.Arms) == 0 {
		return nil, fmt.Errorf("manifest: no arms")
	}
	if len(n.Arms) > MaxArms {
		return nil, fmt.Errorf("manifest: %d arms exceeds limit %d", len(n.Arms), MaxArms)
	}
	byName := make(map[string]int, len(n.Arms))
	for i, a := range n.Arms {
		if a.Name == "" {
			return nil, fmt.Errorf("manifest: arm %d has no name", i)
		}
		if _, dup := byName[a.Name]; dup {
			return nil, fmt.Errorf("manifest: duplicate arm name %q", a.Name)
		}
		byName[a.Name] = i
	}
	if err := checkDAG(n.Arms, byName); err != nil {
		return nil, err
	}

	id, err := n.Hash()
	if err != nil {
		return nil, err
	}
	exp := &Expansion{ManifestID: id}
	seen := make(map[string]int) // job ID → index in exp.Jobs
	total := 0
	for _, a := range n.Arms {
		points, err := a.points(n.Base)
		if err != nil {
			return nil, err
		}
		plan := ArmPlan{Name: a.Name, After: a.After}
		for _, pt := range points {
			total++
			if total > MaxJobs {
				return nil, fmt.Errorf("manifest: expansion exceeds %d jobs", MaxJobs)
			}
			jid, err := pt.Request.ID()
			if err != nil {
				return nil, fmt.Errorf("manifest: arm %q: %w", a.Name, err)
			}
			pt.ID = jid
			if _, dup := seen[jid]; !dup {
				seen[jid] = len(exp.Jobs)
				if err := pt.Request.Spec.Validate(reg); err != nil {
					return nil, fmt.Errorf("manifest: arm %q, job %q: %w", a.Name, pt.Name, err)
				}
				exp.Jobs = append(exp.Jobs, pt)
			}
			plan.JobIDs = append(plan.JobIDs, jid)
		}
		exp.Arms = append(exp.Arms, plan)
	}
	return exp, nil
}

// points expands one arm into its grid points (pre-dedup): the cartesian
// product of the axes' values times the seed range. m is the normalized
// base spec; the arm is normalized.
func (a Arm) points(base spec.ScenarioSpec) ([]Job, error) {
	if a.Replicate > jobs.MaxReplicate {
		return nil, fmt.Errorf("manifest: arm %q: replicate %d exceeds limit %d", a.Name, a.Replicate, jobs.MaxReplicate)
	}
	if a.Seeds.Count < 1 {
		return nil, fmt.Errorf("manifest: arm %q: seeds.count %d must be ≥ 1", a.Name, a.Seeds.Count)
	}
	type value struct {
		label string
		apply func(*spec.ScenarioSpec)
	}
	axes := make([][]value, 0, len(a.Axes))
	for _, ax := range a.Axes {
		p, ok := paramTable[ax.Param]
		if !ok {
			return nil, fmt.Errorf("manifest: arm %q: unknown param %q (have: %s)",
				a.Name, ax.Param, strings.Join(Params(), ", "))
		}
		lists := 0
		if len(ax.Ints) > 0 {
			lists++
		}
		if len(ax.Floats) > 0 {
			lists++
		}
		if len(ax.Strings) > 0 {
			lists++
		}
		if lists != 1 {
			return nil, fmt.Errorf("manifest: arm %q: param %q must set exactly one non-empty value list", a.Name, ax.Param)
		}
		var vals []value
		switch p.kind {
		case kindInt:
			if len(ax.Ints) == 0 {
				return nil, fmt.Errorf("manifest: arm %q: param %q takes ints", a.Name, ax.Param)
			}
			for _, v := range ax.Ints {
				v := v
				vals = append(vals, value{
					label: fmt.Sprintf("%s=%d", ax.Param, v),
					apply: func(s *spec.ScenarioSpec) { p.applyI(s, v) },
				})
			}
		case kindFloat:
			if len(ax.Floats) == 0 {
				return nil, fmt.Errorf("manifest: arm %q: param %q takes floats", a.Name, ax.Param)
			}
			for _, v := range ax.Floats {
				v := v
				vals = append(vals, value{
					label: fmt.Sprintf("%s=%g", ax.Param, v),
					apply: func(s *spec.ScenarioSpec) { p.applyF(s, v) },
				})
			}
		case kindString:
			if len(ax.Strings) == 0 {
				return nil, fmt.Errorf("manifest: arm %q: param %q takes strings", a.Name, ax.Param)
			}
			for _, v := range ax.Strings {
				v := v
				vals = append(vals, value{
					label: fmt.Sprintf("%s=%s", ax.Param, v),
					apply: func(s *spec.ScenarioSpec) { p.applyS(s, v) },
				})
			}
		}
		if err := checkDistinct(a.Name, ax); err != nil {
			return nil, err
		}
		axes = append(axes, vals)
	}

	var out []Job
	var walk func(depth int, labels []string, patch []func(*spec.ScenarioSpec))
	walk = func(depth int, labels []string, patch []func(*spec.ScenarioSpec)) {
		if depth < len(axes) {
			for _, v := range axes[depth] {
				walk(depth+1, append(labels, v.label), append(patch, v.apply))
			}
			return
		}
		for i := 0; i < a.Seeds.Count; i++ {
			s := base
			for _, ap := range patch {
				ap(&s)
			}
			s.Seed = a.Seeds.From + int64(i)
			parts := append([]string{a.Name}, labels...)
			if a.Seeds.Count > 1 {
				parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
			}
			s.Name = strings.Join(parts, "/")
			out = append(out, Job{
				Name: s.Name,
				Request: jobs.Request{
					Spec:          s,
					Replicate:     a.Replicate,
					IncludeSeries: a.IncludeSeries,
				},
			})
		}
	}
	walk(0, nil, nil)
	return out, nil
}

// checkDistinct rejects duplicate values on one axis (they would expand
// to identical labels and — post-dedup — silently collapse).
func checkDistinct(arm string, ax Axis) error {
	seen := make(map[string]bool)
	add := func(label string) error {
		if seen[label] {
			return fmt.Errorf("manifest: arm %q: param %q lists duplicate value %s", arm, ax.Param, label)
		}
		seen[label] = true
		return nil
	}
	for _, v := range ax.Ints {
		if err := add(fmt.Sprintf("%d", v)); err != nil {
			return err
		}
	}
	for _, v := range ax.Floats {
		if err := add(fmt.Sprintf("%g", v)); err != nil {
			return err
		}
	}
	for _, v := range ax.Strings {
		if err := add(v); err != nil {
			return err
		}
	}
	return nil
}

// checkDAG validates the After references and rejects cycles (Kahn).
func checkDAG(arms []Arm, byName map[string]int) error {
	indeg := make([]int, len(arms))
	out := make([][]int, len(arms))
	for i, a := range arms {
		for _, dep := range a.After {
			j, ok := byName[dep]
			if !ok {
				return fmt.Errorf("manifest: arm %q waits on unknown arm %q", a.Name, dep)
			}
			if j == i {
				return fmt.Errorf("manifest: arm %q waits on itself", a.Name)
			}
			out[j] = append(out[j], i)
			indeg[i]++
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		done++
		for _, j := range out[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if done != len(arms) {
		return fmt.Errorf("manifest: dependency cycle among arms")
	}
	return nil
}
