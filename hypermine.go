// Package hypermine is a Go implementation of "Mining Associations
// Using Directed Hypergraphs" (Simha & Tripathi, ICDE 2012 / USF
// thesis 2011): a directed-hypergraph model of association rules for
// multi-valued attributes, association-based similarity and
// clustering, leading-indicator (dominator) mining, and an
// association-based classifier.
//
// The package re-exports the library's public surface; implementation
// lives under internal/. The typical pipeline, in the context-aware
// v2 form (every long-running step honors cancellation/deadlines and
// can report progress):
//
//	ctx := context.Background() // or a request/signal-scoped context
//	u, _ := hypermine.Generate(hypermine.DefaultGenConfig()) // or your own data
//	tb, disc, _ := u.BuildTable(3)                           // equi-depth discretization
//	model, _ := hypermine.BuildContext(ctx, tb, hypermine.C1(),
//		hypermine.WithProgress(func(ph hypermine.Phase, done, total int) {
//			log.Printf("%s %d/%d", ph, done, total)
//		}))
//	dom, _ := hypermine.LeadingIndicatorsContext(ctx, model.H, nil, hypermine.DominatorOptions{})
//	abc, _ := hypermine.NewClassifier(model, dom.DomSet, targets)
//
// The v1 entry points (Build, LeadingIndicators, ...) remain as thin
// context.Background() shims and are bit-identical to the Context
// forms when the context is never canceled.
package hypermine

import (
	"context"

	"hypermine/internal/admit"
	"hypermine/internal/apriori"
	"hypermine/internal/classify"
	"hypermine/internal/cluster"
	"hypermine/internal/core"
	"hypermine/internal/cover"
	"hypermine/internal/engine"
	"hypermine/internal/fleet"
	"hypermine/internal/hypergraph"
	"hypermine/internal/registry"
	"hypermine/internal/runopt"
	"hypermine/internal/server"
	"hypermine/internal/similarity"
	"hypermine/internal/table"
	"hypermine/internal/telemetry"
	"hypermine/internal/timeseries"
)

// Database substrate (internal/table).
type (
	// Table is the discrete database D(A, O, V).
	Table = table.Table
	// Value is an attribute value in 1..K.
	Value = table.Value
	// Discretizer maps raw real columns onto 1..K.
	Discretizer = table.Discretizer
	// EquiDepth is the paper's equi-depth k-threshold discretizer.
	EquiDepth = table.EquiDepth
	// EquiWidth is a fixed-range binning discretizer.
	EquiWidth = table.EquiWidth
)

// Re-exported table constructors.
var (
	NewTable          = table.New
	TableFromRows     = table.FromRows
	TableFromColumns  = table.FromColumns
	ReadTableCSV      = table.ReadCSV
	DiscretizeColumns = table.DiscretizeColumns
	DiscretizeMapped  = table.DiscretizeMapped
	ApplyThresholds   = table.ApplyThresholds
)

// Directed hypergraph substrate (internal/hypergraph).
type (
	// Hypergraph is a weighted directed hypergraph (Definition 2.9).
	Hypergraph = hypergraph.H
	// Hyperedge is one directed hyperedge (T, H).
	Hyperedge = hypergraph.Edge
	// HypergraphStats summarizes an edge population.
	HypergraphStats = hypergraph.Stats
)

// Re-exported hypergraph constructors.
var (
	NewHypergraph = hypergraph.New
	// PackEdgeKey packs a restricted-model (tail, head) pair into its
	// canonical uint64 key — the allocation-free identity Lookup uses.
	PackEdgeKey = hypergraph.PackEdgeKey
)

// Core model (internal/core).
type (
	// Item is one (attribute, value) pair of an mva-type rule.
	Item = core.Item
	// Rule is an mva-type association rule (Definition 3.1).
	Rule = core.Rule
	// Config parameterizes association-hypergraph construction.
	Config = core.Config
	// Model is a mined association hypergraph plus its training table.
	Model = core.Model
	// AssociationTable is the AT of a directed hyperedge (Def. 3.6).
	AssociationTable = core.AssociationTable
)

// Re-exported rule/model functions.
var (
	// Support is Supp(X) of Definition 3.2(1).
	Support = core.Support
	// Confidence is Conf(X ==mva==> Y) of Definition 3.2(2).
	Confidence = core.Confidence
	// ACV computes the association confidence value of a combination.
	ACV = core.ACV
	// NullACV is ACV(empty, {head}) — the Theorem 3.8 baseline.
	NullACV = core.NullACV
	// BuildAssociationTable builds the AT of one combination.
	BuildAssociationTable = core.BuildAssociationTable
	// Build mines the association hypergraph of a table (§3.2.1).
	Build = core.Build
	// C1 and C2 are the paper's §5.1.2 configurations.
	C1 = core.C1
	C2 = core.C2
)

// Similarity and clustering (internal/similarity, internal/cluster).
type (
	// SimilarityGraph is SG_S of Definition 3.13.
	SimilarityGraph = similarity.Graph
	// Clustering is a t-clustering (Algorithm 2) result.
	Clustering = cluster.Clustering
	// KMeansResult is the k-means (Algorithm 4) baseline result.
	KMeansResult = cluster.KMeansResult
)

// Re-exported similarity/clustering functions.
var (
	// InSim and OutSim are the Definition 3.11 similarity notions.
	InSim  = similarity.InSim
	OutSim = similarity.OutSim
	// SimilarityDistance is 1 - (in-sim + out-sim)/2.
	SimilarityDistance = similarity.Distance
	// EuclideanSim is the §5.3.1 baseline similarity.
	EuclideanSim = similarity.EuclideanSim
	// TClustering is the Gonzalez 2-approximation (Algorithm 2).
	TClustering = cluster.TClustering
	// KMeans is the Algorithm 4 baseline.
	KMeans = cluster.KMeans
	// SectorPurity scores clusters against ground-truth labels.
	SectorPurity = cluster.SectorPurity
)

// Leading indicators (internal/cover).
type (
	// DominatorOptions tunes the greedy dominator algorithms.
	DominatorOptions = cover.Options
	// DominatorResult reports a computed dominator.
	DominatorResult = cover.Result
)

// Re-exported covering functions.
var (
	// SetCover is the greedy Algorithm 1; WeightedSetCover is the
	// minimum-cost generalization of §2.1.1.
	SetCover         = cover.SetCover
	WeightedSetCover = cover.WeightedSetCover
	CoverCost        = cover.CoverCost
	// DominatingSet solves graph dominating set via set cover.
	DominatingSet = cover.DominatingSet
	// DominatorGreedyDS is Algorithm 5.
	DominatorGreedyDS = cover.DominatorGreedyDS
	// DominatorSetCover is Algorithm 6 (+ Enhancements 1/2).
	DominatorSetCover = cover.DominatorSetCover
	// IsDominator checks Definition 4.1.
	IsDominator = cover.IsDominator
)

// Classification (internal/classify).
type (
	// ABC is the association-based classifier (Algorithm 9).
	ABC = classify.ABC
	// ABCPredictor is the scratch-reusing per-goroutine prediction
	// handle of an ABC: repeated Predict/PredictBatch calls through it
	// make zero heap allocations.
	ABCPredictor = classify.Predictor
	// Classifier is the baseline supervised-learning interface.
	Classifier = classify.Classifier
	// Perceptron, SVM, MLP, Logistic are the §5.5 baselines;
	// LinearRegression is the §2.3.1 preliminary.
	Perceptron       = classify.Perceptron
	SVM              = classify.SVM
	MLP              = classify.MLP
	Logistic         = classify.Logistic
	LinearRegression = classify.LinearRegression
	// DecisionTree is the CART-style tree of the Ordonez comparison.
	DecisionTree = classify.DecisionTree
)

// Re-exported classification functions.
var (
	// NewClassifier builds an association-based classifier from a
	// model, a dominator, and target attributes.
	NewClassifier = classify.NewABC
	// MeanConfidence averages per-target classification confidences.
	MeanConfidence = classify.MeanConfidence
	// OneHotFeatures and Labels prepare baseline training data.
	OneHotFeatures = classify.OneHotFeatures
	Labels         = classify.Labels
	// EvaluateBaseline fits and scores one baseline per target on
	// full observation rows; EvaluateBaselinePaperProtocol uses the
	// paper's exact §5.5 AT-row training protocol instead.
	EvaluateBaseline              = classify.EvaluateBaseline
	EvaluateBaselinePaperProtocol = classify.EvaluateBaselinePaperProtocol
	PaperProtocolData             = classify.PaperProtocolData
	// KFoldIndices and CrossValidateABC support contiguous-fold
	// cross-validation of the association-based classifier.
	KFoldIndices     = classify.KFoldIndices
	CrossValidateABC = classify.CrossValidateABC
)

// ExactMinDominator brute-forces a minimum dominator on small
// instances, for approximation-quality measurements.
var ExactMinDominator = cover.ExactMinDominator

// Classical association-rule mining baseline (internal/apriori) — the
// Agrawal/Srikant background the paper's model adapts (§1.1, §3.1).
type (
	// AprioriOptions controls frequent-itemset mining.
	AprioriOptions = apriori.Options
	// FrequentItemset is one frequent (attribute, value) itemset.
	FrequentItemset = apriori.Frequent
	// ClassicRule is a classical association rule X => Y.
	ClassicRule = apriori.Rule
)

// Re-exported Apriori functions.
var (
	// FrequentItemsets runs level-wise Apriori.
	FrequentItemsets = apriori.FrequentItemsets
	// GenerateRules derives rules from frequent itemsets.
	GenerateRules = apriori.GenerateRules
	// MineClassicRules is the one-call frequent+rules pipeline.
	MineClassicRules = apriori.Mine
)

// Model-level rule mining (internal/core).
type (
	// ScoredRule is an mva-type rule read off a model's hyperedge.
	ScoredRule = core.ScoredRule
	// MineOptions filters MineRules output.
	MineOptions = core.MineOptions
)

// Re-exported model rule mining.
var (
	// MineRules extracts ranked mva-type rules pointing at a head.
	MineRules = core.MineRules
	// FormatRule renders a rule with attribute names.
	FormatRule = core.FormatRule
)

// Model persistence (internal/core): the binary snapshot, the one
// model format, shared by the CLI (`hypermine build`, `hypermine model
// load/append`) and the hypermined serving daemon.
type (
	// SaveOptions tunes model persistence; OmitRows drops the training
	// table for graph-query-only snapshots.
	SaveOptions = core.SaveOptions
)

var (
	// WriteModelSnapshot / ReadModelSnapshot are the binary snapshot
	// codec (magic "HYPM", versioned, length-prefixed, checksummed).
	WriteModelSnapshot = core.WriteSnapshot
	ReadModelSnapshot  = core.ReadSnapshot
)

// Model serving (internal/registry, internal/server): the hypermined
// subsystem — a hot-swappable registry of prepared models and the
// HTTP/JSON query API over it.
type (
	// ModelRegistry is a named registry of immutable served models
	// with atomic hot swap and LRU eviction by resident edge count.
	ModelRegistry = registry.Registry
	// RegistryOptions tunes a ModelRegistry.
	RegistryOptions = registry.Options
	// ServedModel is one fully prepared serving model (dominator,
	// classifier + predictor pool, cached similarity graph).
	ServedModel = registry.Served
	// RegistryStats is a point-in-time registry summary.
	RegistryStats = registry.Stats
	// QueryServer is the HTTP/JSON query API over a ModelRegistry.
	QueryServer = server.Server
)

var (
	// NewModelRegistry returns an empty model registry.
	NewModelRegistry = registry.New
	// NewQueryServer returns a QueryServer over a registry; mount
	// Handler() on any http server.
	NewQueryServer = server.New
)

// Admission control (internal/admit): graceful degradation under
// overload. An AdmissionController sits in front of every query with
// per-tenant and per-model token buckets, per-cost-class concurrency
// gates backed by bounded FIFO queues, and per-model circuit
// breakers. Hand one to NewQueryServer via WithAdmission; shed
// requests are answered immediately with 429 (rate/queue pressure) or
// 503 (open breaker) plus a Retry-After the client should honor. See
// the README's "Operating under load".
type (
	// AdmissionConfig tunes an AdmissionController. Zero or negative
	// limits disable the corresponding mechanism, so a zero config
	// admits everything.
	AdmissionConfig = admit.Config
	// AdmissionController is the admission front door shared by the
	// server, hypermined, and any custom transport.
	AdmissionController = admit.Controller
	// AdmissionStats is a point-in-time snapshot of admission
	// counters (admitted/queued/shed per tenant and model, gate loads,
	// breaker states).
	AdmissionStats = admit.Stats
	// QueryServerOption configures a QueryServer at construction.
	QueryServerOption = server.Option
)

var (
	// NewAdmissionController builds an admission controller.
	NewAdmissionController = admit.NewController
	// WithAdmission puts an admission controller in front of every
	// query a QueryServer serves.
	WithAdmission = server.WithAdmission
)

// Observability (internal/telemetry): the zero-dependency telemetry
// layer the server and daemon are wired through. A TelemetryRegistry
// holds named counters and fixed-bucket latency histograms and renders
// them as Prometheus text exposition; a Tracer mints (or adopts, via
// W3C traceparent) per-request trace IDs, records phase spans, and
// retains slow/errored/pinned/sampled traces in bounded lock-free
// rings served at /debug/traces. Hand a Tracer to NewQueryServer via
// WithTracer; see the README's "Observability".
type (
	// Tracer mints request traces and retains interesting ones.
	Tracer = telemetry.Tracer
	// TracerConfig tunes a Tracer (slow threshold, ring size,
	// sampling). The zero value is a working default.
	TracerConfig = telemetry.TracerConfig
	// TraceID is a 128-bit trace identifier (32 lowercase hex in JSON
	// and in the X-Trace-Id header).
	TraceID = telemetry.TraceID
	// Trace is one finished, retained request trace with its phase
	// spans; this is what /debug/traces serves.
	Trace = telemetry.Trace
	// TraceSpan is one phase span inside a Trace.
	TraceSpan = telemetry.SpanRecord
	// ActiveTrace is an in-flight trace being recorded; thread it
	// through work via ContextWithTrace.
	ActiveTrace = telemetry.Active
	// TelemetryRegistry holds counters and latency histograms and
	// writes Prometheus text exposition.
	TelemetryRegistry = telemetry.Registry
	// TelemetryCounter is one monotonically increasing counter shared
	// between /stats (JSON) and /metrics (Prometheus).
	TelemetryCounter = telemetry.Counter
	// LatencyHistogram is a fixed-bucket, allocation-free latency
	// histogram.
	LatencyHistogram = telemetry.Histogram
)

var (
	// NewTracer builds a Tracer from a TracerConfig.
	NewTracer = telemetry.NewTracer
	// NewTelemetryRegistry returns an empty telemetry registry.
	NewTelemetryRegistry = telemetry.NewRegistry
	// ParseTraceparent extracts the TraceID from a W3C traceparent
	// header value; ok reports whether the header was well-formed.
	ParseTraceparent = telemetry.ParseTraceparent
	// ContextWithTrace threads an in-flight trace through a context.
	ContextWithTrace = telemetry.ContextWithTrace
	// TraceFromContext returns the in-flight trace, or nil.
	TraceFromContext = telemetry.TraceFrom
	// TraceIDFromContext returns the current trace ID, or the zero ID.
	TraceIDFromContext = telemetry.TraceIDFrom
	// WithTracer wires request tracing into a QueryServer and exposes
	// /debug/traces.
	WithTracer = server.WithTracer
	// WithLogger sets the QueryServer's structured logger (slog).
	WithLogger = server.WithLogger
	// WithSlowQueryLog logs queries slower than the threshold as
	// structured warnings and pins their traces.
	WithSlowQueryLog = server.WithSlowQueryLog
)

// Fleet serving tier (internal/fleet): consistent-hash sharding of
// model names across replicated hypermined members. A FleetRing maps
// each model name to its R owners; a FleetNode wraps a QueryServer so
// accepted writes replicate synchronously to the other owners and
// generations gossip between members; a FleetRouter is the stateless
// routing tier that forwards model-scoped requests to owners with
// failover. See the README's "Fleet" section for the topology and the
// write-safety contract.
type (
	// FleetRing is the consistent-hash ring (virtual nodes, R owners
	// per model name, minimal movement on membership change).
	FleetRing = fleet.Ring
	// FleetNode is a fleet member: a QueryServer plus replication,
	// gossip, and readiness.
	FleetNode = fleet.Node
	// FleetNodeConfig configures a FleetNode (name, peers, R, vnodes,
	// gossip interval).
	FleetNodeConfig = fleet.NodeConfig
	// FleetRouter is the stateless routing/failover tier.
	FleetRouter = fleet.Router
	// FleetRouterConfig configures a FleetRouter (peers, R, vnodes,
	// optional admission + tracing).
	FleetRouterConfig = fleet.RouterConfig
)

var (
	// NewFleetRing builds a ring over a node set; 0 picks the
	// defaults (128 vnodes, R=2).
	NewFleetRing = fleet.NewRing
	// NewFleetNode wraps a registry + QueryServer into a fleet member.
	NewFleetNode = fleet.NewNode
	// NewFleetRouter builds the routing tier over a peer set.
	NewFleetRouter = fleet.NewRouter
)

// Prepared-model engine (internal/engine): the lazily-memoized query
// surface shared by this facade, the serving registry, the HTTP
// server, and the CLI. An Engine wraps one immutable Model and builds
// each derived artifact (TID-bitset index, all-pairs similarity
// graph, dominators keyed by options, prepared classifier + predictor
// pool, bounded LRU of mined-rule answers) at most once, on first
// use, sharing concurrent builds singleflight-style. The v1 free
// functions (MineRules, BuildSimilarityGraph, LeadingIndicators, ...)
// are the one-shot forms of the same computations and stay
// bit-identical: an Engine's first answer equals the v1 answer, and
// every repeat is a cache read.
type (
	// Engine is the prepared-model query handle.
	Engine = engine.Engine
	// EngineOptions tunes an Engine (rule-cache bound).
	EngineOptions = engine.Options
	// EngineStats reports artifact builds, rule-cache hits, and
	// resident-cost accounting.
	EngineStats = engine.Stats
	// EngineRequest / EngineResponse are the transport-neutral typed
	// query union executed by Engine.Do — the same types the server's
	// /v1/models/{name}:query endpoint decodes and encodes.
	EngineRequest  = engine.Request
	EngineResponse = engine.Response
	// EngineError is a typed engine failure (kind + message).
	EngineError = engine.Error
	// EngineWarmup selects artifacts for eager prebuilding.
	EngineWarmup = engine.Warmup
	// DominatorSpec keys a memoized dominator computation.
	DominatorSpec = engine.DomSpec
	// Typed request variants of EngineRequest.
	RulesQuery      = engine.RulesRequest
	SimilarQuery    = engine.SimilarRequest
	DominatorsQuery = engine.DominatorsRequest
	ClassifyQuery   = engine.ClassifyRequest
)

// Re-exported engine constructors and warmup policies.
var (
	// NewEngine wraps a model in a prepared query engine.
	NewEngine = engine.New
	// DefaultDominatorSpec is the serving dominator policy (Algorithm
	// 6 with both enhancements).
	DefaultDominatorSpec = engine.DefaultDomSpec
)

// Engine warmup policies (combine with |).
const (
	EngineWarmupNone       = engine.WarmupNone
	EngineWarmupIndex      = engine.WarmupIndex
	EngineWarmupSimilarity = engine.WarmupSimilarity
	EngineWarmupDominator  = engine.WarmupDominator
	EngineWarmupClassifier = engine.WarmupClassifier
	EngineWarmupAll        = engine.WarmupAll
)

// Financial time-series substrate (internal/timeseries).
type (
	// Series is one financial time-series with sector metadata.
	Series = timeseries.Series
	// Universe is an aligned collection of series.
	Universe = timeseries.Universe
	// GenConfig parameterizes the synthetic S&P-style generator.
	GenConfig = timeseries.GenConfig
	// Discretization carries fitted k-threshold vectors.
	Discretization = timeseries.Discretization
	// SectorSpec describes one sector of the synthetic taxonomy.
	SectorSpec = timeseries.SectorSpec
)

// Re-exported time-series functions.
var (
	// Delta computes fractional day-over-day changes (§5.1.1).
	Delta = timeseries.Delta
	// Generate builds a deterministic synthetic universe.
	Generate = timeseries.Generate
	// DefaultGenConfig / PaperScaleGenConfig are preset sizes.
	DefaultGenConfig    = timeseries.DefaultGenConfig
	PaperScaleGenConfig = timeseries.PaperScaleGenConfig
	// DefaultTaxonomy is the paper's 12-sector / 104-sub-sector map.
	DefaultTaxonomy = timeseries.DefaultTaxonomy
)

// DominatorVariant controls whether LeadingIndicators applies its
// paper-preferred enhancement defaults or respects the caller's
// explicit Enhancement1/2 settings; see the re-exported constants.
type DominatorVariant = cover.Variant

const (
	// DominatorAuto (the zero value) keeps the historical
	// LeadingIndicators behavior: Algorithm 6 with both enhancements,
	// regardless of the Enhancement fields.
	DominatorAuto = cover.VariantAuto
	// DominatorExplicit makes LeadingIndicators respect
	// Enhancement1/Enhancement2 exactly as the caller set them.
	DominatorExplicit = cover.VariantExplicit
)

// LeadingIndicators computes a leading indicator (dominator) for the
// given vertex set of h, defaulting to all vertices when s is nil.
//
// With opt.Variant == DominatorAuto (the zero value) it uses
// Algorithm 6 with both enhancements — the paper's preferred variant —
// overriding whatever Enhancement1/2 say; this default is deliberate
// and was historically applied silently. Set opt.Variant =
// DominatorExplicit to run exactly the enhancement combination you
// configured (cover.DominatorSetCover always did).
func LeadingIndicators(h *Hypergraph, s []int, opt DominatorOptions) (*DominatorResult, error) {
	return LeadingIndicatorsContext(context.Background(), h, s, opt)
}

// LeadingIndicatorsContext is LeadingIndicators under a context: the
// greedy cover polls ctx at a bounded candidate stride and returns
// ctx.Err() promptly when canceled. Options apply progress/stride
// hooks on top of opt.
func LeadingIndicatorsContext(ctx context.Context, h *Hypergraph, s []int, opt DominatorOptions, opts ...Option) (*DominatorResult, error) {
	if s == nil {
		s = make([]int, h.NumVertices())
		for i := range s {
			s[i] = i
		}
	}
	if opt.Variant == DominatorAuto {
		opt.Enhancement1 = true
		opt.Enhancement2 = true
	}
	o := gatherOptions(opts)
	opt.Run = o.mergeHooks(opt.Run)
	return cover.DominatorSetCoverContext(ctx, h, s, opt)
}

// Phase names one stage of the pipeline as seen by progress
// callbacks; the per-phase work units are documented on the
// runopt.Phase constants (PhaseEdges, PhasePairs, PhaseTriples,
// PhaseSimilarity, PhaseDominator, PhaseApriori, PhaseRules,
// PhaseFolds, re-exported below).
type Phase = runopt.Phase

// Re-exported pipeline phases.
const (
	PhaseEdges      = runopt.PhaseEdges
	PhasePairs      = runopt.PhasePairs
	PhaseTriples    = runopt.PhaseTriples
	PhaseSimilarity = runopt.PhaseSimilarity
	PhaseDominator  = runopt.PhaseDominator
	PhaseApriori    = runopt.PhaseApriori
	PhaseRules      = runopt.PhaseRules
	PhaseFolds      = runopt.PhaseFolds
)

// ProgressFunc observes completed work units of one phase; total is 0
// when unknown up front. Parallel stages may invoke it concurrently.
type ProgressFunc = runopt.ProgressFunc

// Option is a unified functional option accepted by every ...Context
// entry point of the facade. One vocabulary replaces the five
// divergent knobs of the underlying option structs: each Option maps
// onto the matching field of core.Config / cover.Options /
// apriori.Options / core.MineOptions / similarity.GraphOptions, and
// options without a counterpart for a given call (for example
// WithWorkers on the serial dominator) are simply ignored there.
type Option func(*callOptions)

type callOptions struct {
	workers int
	hooks   *runopt.Hooks
}

func gatherOptions(opts []Option) callOptions {
	var o callOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o *callOptions) ensureHooks() *runopt.Hooks {
	if o.hooks == nil {
		o.hooks = &runopt.Hooks{}
	}
	return o.hooks
}

// mergeHooks layers the options' hooks over hooks the caller already
// attached to the option struct, mutating neither: an explicitly set
// WithProgress/WithDeadlineCheckEvery wins its field, every other
// field keeps the caller's value. Returns the existing pointer
// untouched when no hook options were given.
func (o *callOptions) mergeHooks(existing *runopt.Hooks) *runopt.Hooks {
	if o.hooks == nil {
		return existing
	}
	if existing == nil {
		return o.hooks
	}
	merged := *existing
	if o.hooks.Progress != nil {
		merged.Progress = o.hooks.Progress
	}
	if o.hooks.CheckEvery > 0 {
		merged.CheckEvery = o.hooks.CheckEvery
	}
	return &merged
}

// WithWorkers bounds worker goroutines for parallel operations
// (BuildContext, BuildSimilarityGraphContext, CrossValidateABCContext
// model builds); n <= 0 keeps the operation's default (GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *callOptions) { o.workers = n }
}

// WithProgress installs a progress callback; see ProgressFunc and the
// Phase constants for the reporting contract.
func WithProgress(f ProgressFunc) Option {
	return func(o *callOptions) { o.ensureHooks().Progress = f }
}

// WithDeadlineCheckEvery bounds how many work units an operation
// processes between context-cancellation polls, trading cancellation
// latency against (tiny) polling overhead. n <= 0 keeps each
// operation's documented default stride (core.DefaultCheckEvery ACV
// evaluations for builds, cover.DefaultCheckEvery candidates for
// dominators, apriori.DefaultCheckEvery candidates for Apriori, one
// edge/row for rules and similarity).
func WithDeadlineCheckEvery(n int) Option {
	return func(o *callOptions) { o.ensureHooks().CheckEvery = n }
}

// BuildContext is Build under a context: mining aborts promptly with
// ctx.Err() when ctx is canceled or its deadline passes, and is
// bit-identical to Build when it never is. Options map onto cfg
// (WithWorkers -> Parallelism, WithProgress/WithDeadlineCheckEvery ->
// Run hooks, merged field-wise over caller-set hooks) without
// mutating the caller's structs.
func BuildContext(ctx context.Context, tb *Table, cfg Config, opts ...Option) (*Model, error) {
	o := gatherOptions(opts)
	if o.workers > 0 {
		cfg.Parallelism = o.workers
	}
	cfg.Run = o.mergeHooks(cfg.Run)
	return core.BuildContext(ctx, tb, cfg)
}

// BuildSimilarityGraph induces SG_S over a vertex collection with
// GOMAXPROCS workers.
func BuildSimilarityGraph(h *Hypergraph, s []int) (*SimilarityGraph, error) {
	return BuildSimilarityGraphContext(context.Background(), h, s)
}

// BuildSimilarityGraphParallel is BuildSimilarityGraph with an explicit
// worker count (0 means GOMAXPROCS). The output is bit-identical at
// every worker count.
func BuildSimilarityGraphParallel(h *Hypergraph, s []int, parallelism int) (*SimilarityGraph, error) {
	return BuildSimilarityGraphContext(context.Background(), h, s, WithWorkers(parallelism))
}

// BuildSimilarityGraphContext is BuildSimilarityGraph under a
// context, with options for workers, progress, and poll stride.
func BuildSimilarityGraphContext(ctx context.Context, h *Hypergraph, s []int, opts ...Option) (*SimilarityGraph, error) {
	o := gatherOptions(opts)
	g := similarity.GraphOptions{Parallelism: o.workers}
	if o.hooks != nil {
		g.Progress = o.hooks.Progress
		g.CheckEvery = o.hooks.CheckEvery
	}
	return similarity.BuildGraphContext(ctx, h, s, g)
}

// FrequentItemsetsContext is FrequentItemsets under a context: the
// level-wise miner polls ctx between candidates and levels and
// returns ctx.Err() promptly when canceled.
func FrequentItemsetsContext(ctx context.Context, tb *Table, opt AprioriOptions, opts ...Option) ([]FrequentItemset, error) {
	o := gatherOptions(opts)
	opt.Run = o.mergeHooks(opt.Run)
	return apriori.FrequentItemsetsContext(ctx, tb, opt)
}

// MineRulesContext is MineRules under a context: the workers mining a
// head's hyperedges poll ctx per hyperedge (each fills one association
// table from posting bitmaps) and ctx.Err() is returned promptly when
// canceled.
func MineRulesContext(ctx context.Context, m *Model, head int, opt MineOptions, opts ...Option) ([]ScoredRule, error) {
	o := gatherOptions(opts)
	opt.Run = o.mergeHooks(opt.Run)
	return core.MineRulesContext(ctx, m, head, opt)
}

// CrossValidateABCContext is CrossValidateABC under a context: the
// per-fold model builds inherit ctx and the options, and cancellation
// is additionally polled between folds.
func CrossValidateABCContext(ctx context.Context, tb *Table, cfg Config, dom, targets []int, k int, opts ...Option) (float64, error) {
	o := gatherOptions(opts)
	if o.workers > 0 {
		cfg.Parallelism = o.workers
	}
	cfg.Run = o.mergeHooks(cfg.Run)
	return classify.CrossValidateABCContext(ctx, tb, cfg, dom, targets, k)
}
