package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/runner"
)

// RequestSchemaVersion versions the submit document ("v"). It moves with
// experiment.SpecSchemaVersion: the Spec is the bulk of the request.
const RequestSchemaVersion = 1

// Request is the POST /api/v1/jobs body: which evaluation to run and the
// Spec describing it. Method is one of experiment.Methods().
type Request struct {
	V      int             `json:"v,omitempty"`
	Method string          `json:"method"`
	Spec   experiment.Spec `json:"spec"`
}

// Methods lists the accepted Request.Method values.
var Methods = experiment.Methods()

// ParseRequest decodes and fully validates a submit document, returning
// typed field errors the HTTP layer renders as a 400 body. The Spec goes
// through experiment.ParseSpec, so a stored request.json — whose Spec
// carries its own "v" — is itself a valid submission.
func ParseRequest(data []byte) (Request, error) {
	var doc struct {
		V      int             `json:"v,omitempty"`
		Method string          `json:"method"`
		Spec   json.RawMessage `json:"spec"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Request{}, fieldError("(body)", err.Error())
	}
	if doc.Spec == nil {
		return Request{}, fieldError("spec", "required")
	}
	sp, err := experiment.ParseSpec(doc.Spec)
	if err != nil {
		return Request{}, fieldError("spec", err.Error())
	}
	req := Request{V: doc.V, Method: doc.Method, Spec: sp}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}

func fieldError(field, msg string) error {
	return &experiment.ValidationError{Fields: []experiment.FieldError{{Field: field, Msg: msg}}}
}

// Validate checks the request envelope and the Spec inside it.
func (r Request) Validate() error {
	var fields []experiment.FieldError
	if r.V != 0 && r.V != RequestSchemaVersion {
		fields = append(fields, experiment.FieldError{
			Field: "v", Msg: fmt.Sprintf("schema version %d not supported (this build speaks v%d)", r.V, RequestSchemaVersion),
		})
	}
	if !slices.Contains(Methods, r.Method) {
		fields = append(fields, experiment.FieldError{
			Field: "method", Msg: fmt.Sprintf("unknown method %q (want one of %v)", r.Method, Methods),
		})
	}
	if err := r.Spec.Validate(); err != nil {
		if verr, ok := err.(*experiment.ValidationError); ok {
			for _, f := range verr.Fields {
				fields = append(fields, experiment.FieldError{Field: "spec." + f.Field, Msg: f.Msg})
			}
		} else {
			fields = append(fields, experiment.FieldError{Field: "spec", Msg: err.Error()})
		}
	}
	if len(fields) > 0 {
		return &experiment.ValidationError{Fields: fields}
	}
	return nil
}

// CacheKey is the store index name this request's results live under:
// the method tag plus the Spec's canonical hash. Everything that changes
// the computed artifacts is in one of the two.
func (r Request) CacheKey() string { return r.Method + "-" + r.Spec.Hash() }

// canonicalJSON is the request's deterministic encoding — the stored
// request.json artifact, reproducible byte for byte from the Spec alone.
func (r Request) canonicalJSON() ([]byte, error) {
	return json.Marshal(struct {
		V      int             `json:"v"`
		Method string          `json:"method"`
		Spec   json.RawMessage `json:"spec"`
	}{RequestSchemaVersion, r.Method, r.Spec.CanonicalJSON()})
}

// manifest is the stored object a cache key resolves to: the artifact
// name → object hash map of one computed job. It carries no timestamps
// or job IDs. Every artifact except trace_spans.json is a pure function
// of the request, so identical requests recompute to identical content
// addresses; trace_spans.json records host wall times and is the one
// deliberate exception (a cache hit still returns the original's bytes,
// so resubmissions see stable hashes — only an index wipe plus
// recomputation produces a fresh span set).
type manifest struct {
	V         int               `json:"v"`
	Method    string            `json:"method"`
	SpecHash  string            `json:"spec_hash"`
	Artifacts map[string]string `json:"artifacts"`
}

// execute runs the request's evaluation through the same method dispatch
// cmd/figures uses. The scenario batch carries the per-job registry (its
// snapshot becomes the metrics.json artifact) and fans out over a per-job
// pool, whose account goes to onProgress without mixing jobs.
func execute(ctx context.Context, req Request, reg *metrics.Registry, workers int, onProgress func(runner.Progress)) (*experiment.Output, error) {
	pool := &runner.Pool{Workers: workers, OnProgress: onProgress}
	sp := req.Spec
	// Shards is an execution knob excluded from the cache key; the
	// service always runs one shard, so the per-shard host-time barrier
	// series of a multi-shard run never leak into the metrics artifact.
	sp.Shards = 0
	return sp.RunMethod(ctx, req.Method, experiment.Options{Executor: pool.Executor(), Metrics: reg})
}
