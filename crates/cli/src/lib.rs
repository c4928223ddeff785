//! `skm` — command-line k-means clustering with pluggable seeding and
//! refinement (any `--init` composes with any `--refine`).
//!
//! Subcommands:
//!
//! ```text
//! skm generate --dataset gauss|spam|kdd --out data.csv [--n N] [--k K]
//!              [--variance R] [--seed S] [--no-labels]
//! skm fit      --input data.csv --k K --centers-out centers.csv
//!              [--labels]
//!              [--init random|kmeans++|kmeans-par|afk-mc2|partition|coreset]
//!              [--refine lloyd|minibatch|none]
//!              [--factor F] [--rounds R] [--chain M] [--groups G]
//!              [--coreset-size C] [--batch-size B] [--batch-iters I]
//!              [--max-iters I] [--tol T] [--seed S] [--threads T]
//!              [--assignments-out labels.csv]
//! skm predict  --input new.csv --centers centers.csv --out labels.csv
//! skm evaluate --input data.csv --centers centers.csv [--labels]
//!              [--silhouette-sample N]
//! skm help
//! ```
//!
//! CSV conventions follow `kmeans-data`: plain comma-separated floats, an
//! optional header row (auto-detected), and — with `--labels` — an integer
//! class label in the last column (used only for evaluation metrics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kmeans_cluster::RetryPolicy;
use kmeans_core::init::KMeansParallelConfig;
use kmeans_core::lloyd::LloydConfig;
use kmeans_core::metrics::{adjusted_rand_index, nmi, purity, silhouette_sampled};
use kmeans_core::minibatch::MiniBatchConfig;
use kmeans_core::model::{KMeans, PreparedPredictor};
use kmeans_core::pipeline;
use kmeans_data::blockfile::{csv_to_block_file, is_block_file, BlockFileSource};
use kmeans_data::chunked::{ChunkedSource, CsvSource};
use kmeans_data::io::{read_csv, write_csv, LabelColumn};
use kmeans_data::modelfile::{is_model_file, load_model_file};
use kmeans_data::synth::{GaussMixture, KddLike, SpamLike};
use kmeans_data::{Dataset, PointMatrix};
use kmeans_obs::{parse_chrome_trace, write_chrome_trace, ArgValue, Recorder, SpanEvent};
use kmeans_par::Parallelism;
use kmeans_serve::{
    EngineConfig, ServeClient, ServeEngine, TcpServeServer, DEFAULT_MAX_BATCH_POINTS,
    DEFAULT_QUEUE_CAP_POINTS,
};
use kmeans_streaming::partition::PartitionConfig;
use kmeans_util::cli::Args;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// Errors surfaced to the terminal user.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or invalid flag combination.
    Usage(String),
    /// Underlying data-layer failure (I/O, parsing, shape).
    Data(kmeans_data::DataError),
    /// Underlying clustering failure.
    KMeans(kmeans_core::KMeansError),
    /// Distributed-runtime failure (connection, protocol, worker).
    Cluster(kmeans_cluster::ClusterError),
    /// Output-write failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg} (run `skm help`)"),
            CliError::Data(e) => write!(f, "{e}"),
            CliError::KMeans(e) => write!(f, "{e}"),
            CliError::Cluster(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<kmeans_data::DataError> for CliError {
    fn from(e: kmeans_data::DataError) -> Self {
        CliError::Data(e)
    }
}

impl From<kmeans_core::KMeansError> for CliError {
    fn from(e: kmeans_core::KMeansError) -> Self {
        CliError::KMeans(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<kmeans_cluster::ClusterError> for CliError {
    fn from(e: kmeans_cluster::ClusterError) -> Self {
        CliError::Cluster(e)
    }
}

/// Dispatches one subcommand, writing human-readable output to `out`.
pub fn dispatch(command: &str, args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        "generate" => generate(args, out),
        "fit" => fit(args, out),
        "convert" => convert(args, out),
        "shard" => shard(args, out),
        "worker" => worker(args, out),
        "serve" => serve(args, out),
        "drain" => drain(args, out),
        "predict" => predict(args, out),
        "evaluate" => evaluate(args, out),
        "trace" => trace(args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

/// The help text.
pub fn usage() -> &'static str {
    "skm — k-means clustering with scalable k-means|| seeding (VLDB 2012)

USAGE:
  skm generate --dataset gauss|spam|kdd --out FILE [--n N] [--k K]
               [--variance R] [--seed S] [--no-labels]
  skm fit      --input FILE --k K --centers-out FILE [--labels]
               [--init random|kmeans++|kmeans-par|afk-mc2|partition|coreset]
               [--refine lloyd|minibatch|none]
               [--factor F] [--rounds R]        (kmeans-par: l = F*k, R rounds)
               [--chain M]                      (afk-mc2: Markov chain length)
               [--groups G]                     (partition: group count, default sqrt(n/k))
               [--coreset-size C]               (coreset: bucket size, default 200)
               [--batch-size B] [--batch-iters I]  (minibatch refinement)
               [--max-iters I]                  (lloyd refinement)
               [--tol T]                        (lloyd only: relative-improvement stop)
               [--seed S] [--threads T] [--shard-size N] [--assignments-out FILE]
               [--chunked]                      (out-of-core: stream FILE block by block)
               [--block-rows N]                 (chunked csv input: rows per block, default 8192)
               [--mem-budget SIZE]              (chunked block-file input: e.g. 64m; default 256m)
               [--distributed --workers A,B,C]  (run on remote skm workers; no --input)
               [--io-timeout SECS]              (distributed: per-socket timeout, default 60)
               [--manifest FILE]                (distributed: cross-check an skm-shard manifest)
               [--checkpoint FILE]              (distributed: resumable round journal, SKMCKPT1)
               [--save-model FILE]              (persist the fit as an SKMMDL01 model file)
               [--trace FILE]                   (flight recorder: Chrome/perfetto trace JSON)
  skm convert  --input data.csv --out data.skmb [--block-rows N] [--labels]
  skm shard    --input data.skmb --workers N --out-prefix PATH [--align ROWS]
  skm worker   --listen ADDR --data shard.skmb [--mem-budget SIZE] [--threads T]
               [--io-timeout SECS] [--once]
               [--log]                          (structured per-frame event log on stderr)
  skm serve    --listen ADDR --model model.skmm [--threads T] [--batch-cap POINTS]
               [--queue-cap POINTS]             (admission cap; excess load is shed typed)
               [--io-timeout SECS] [--once]
               [--metrics-listen ADDR]          (plain-HTTP GET /metrics + /healthz + /readyz)
               [--metrics-timeout SECS]         (per-scrape socket timeout, default 5)
  skm drain    --server ADDR [--io-timeout SECS]  (graceful drain: finish admitted work, exit)
  skm predict  --input FILE (--centers FILE | --server A[,B,...]) --out FILE
               [--deadline-ms MS] [--chunk-points N] [--retries N]
  skm evaluate --input FILE (--centers FILE | --server A[,B,...]) [--labels]
               [--deadline-ms MS] [--retries N] [--silhouette-sample N]
  skm trace    summarize FILE                   (per-span breakdown of a --trace capture)
  skm help

Every --init seeder composes with every --refine refiner; --refine none
keeps the seed centers (seed-cost studies). Runs are deterministic per
--seed for any --threads value.

Out of core: `skm convert` rewrites a CSV as a binary block file (one
streaming pass), and `skm fit --chunked` streams either format without
materializing the dataset — results are bit-identical to the in-memory
fit for every --init/--refine except afk-mc2 (no chunked formulation)
and partition (true streaming variant). --chunked drops
ground-truth label metrics; block size never changes results.

Distributed: `skm shard` splits a block file into per-worker shard files
(boundaries on the --align grid, default 8192 = the default shard size),
each `skm worker` serves one shard, and `skm fit --distributed --workers
a,b,c` runs the configured pipeline across them — bit-identical to the
single-node fit of the concatenated data for any worker count (supported
stages: --init random|kmeans-par, --refine lloyd|minibatch|none; the
same backend-generic round drivers run every mode). Workers own the
data, so --distributed takes no --input; worker order in --workers is
global row order. Fits are fault tolerant: a worker that dies mid-fit is
re-dialed with backoff and caught up (restart `skm worker` on the same
address), and --checkpoint FILE journals round results so a killed
coordinator re-run with the same command resumes bit-identically.

Serving: `skm fit --save-model model.skmm` persists the fitted model,
`skm serve` answers predict/cost queries over TCP from one prepared
assignment kernel per model revision (concurrent clients micro-batch
into shared kernel sweeps; models hot-swap without downtime), and
`--server ADDR` routes `skm predict` / `skm evaluate` to a running
server — answers are bit-identical to the local path on the same model.
`--centers` also accepts a model file directly (detected by magic).

Serving robustness: `--queue-cap` bounds admitted-but-unanswered points;
excess requests are shed immediately with a typed overload error (never
queued into collapse), and `--deadline-ms` attaches a budget so a
request still queued past it draws a typed deadline error instead of a
stale answer. `--server` accepts a comma-separated replica list: the
client fails over on disconnect/drain/overload with bounded jittered
backoff and re-sends (predict is idempotent), and `--chunk-points`
(default: the server's batch cap) streams large predict inputs as
bounded chunks with byte-identical concatenated labels. `skm drain`
rolls a server out gracefully: admitted work is answered, new requests
are rejected typed, /readyz flips to 503, and the process exits.

Observability: `skm fit --trace FILE` records every round, pipeline
stage, and coordinator conversation as Chrome trace-event JSON (open in
https://ui.perfetto.dev or summarize with `skm trace summarize FILE`);
tracing reads results, never touches them — traced fits stay
bit-identical. `skm serve --metrics-listen ADDR` exposes request/batch
latency quantiles and per-revision counters at GET /metrics in the
Prometheus text format, and `skm worker --log` prints one structured
line per served frame (message, rows, bytes, duration) on stderr."
}

fn require(args: &Args, name: &str) -> Result<String, CliError> {
    let v = args.str_or(name, "");
    if v.is_empty() {
        return Err(CliError::Usage(format!("missing required --{name}")));
    }
    Ok(v)
}

fn label_mode(args: &Args) -> LabelColumn {
    if args.flag("labels") {
        LabelColumn::Last
    } else {
        LabelColumn::None
    }
}

fn generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = require(args, "dataset")?;
    let path = require(args, "out")?;
    let seed = args.u64_or("seed", 0);
    let synth = match dataset.as_str() {
        "gauss" => GaussMixture::new(args.usize_or("k", 50))
            .points(args.usize_or("n", 10_000))
            .center_variance(args.f64_or("variance", 1.0))
            .generate(seed)?,
        "spam" => SpamLike::new()
            .points(args.usize_or("n", 4_601))
            .generate(seed)?,
        "kdd" => KddLike::new(args.usize_or("n", 100_000)).generate(seed)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --dataset '{other}' (expected gauss|spam|kdd)"
            )))
        }
    };
    let dataset = if args.flag("no-labels") {
        Dataset::new(synth.dataset.name(), synth.dataset.points().clone())
    } else {
        synth.dataset
    };
    write_csv(&path, &dataset)?;
    writeln!(
        out,
        "wrote {} points x {} dims to {path}{}",
        dataset.len(),
        dataset.dim(),
        if dataset.labels().is_some() {
            " (ground-truth labels in last column)"
        } else {
            ""
        }
    )?;
    Ok(())
}

fn parallelism(args: &Args) -> Parallelism {
    match args.usize_or("threads", 0) {
        0 => Parallelism::Auto,
        t => Parallelism::Threads(t),
    }
}

/// Flag ownership for one pipeline axis: which stage values each
/// stage-specific flag configures. One table per axis — extending a stage
/// with a new flag means one new row here, nothing per match arm.
type FlagOwners = &'static [(&'static str, &'static [&'static str], &'static str)];

/// `--init` flags: (flag, owning values, display name for the error).
const INIT_FLAGS: FlagOwners = &[
    ("factor", &["kmeans-par"], "kmeans-par"),
    ("rounds", &["kmeans-par"], "kmeans-par"),
    ("chain", &["afk-mc2"], "afk-mc2"),
    ("groups", &["partition"], "partition"),
    ("coreset-size", &["coreset"], "coreset"),
];

/// `--refine` flags.
const REFINE_FLAGS: FlagOwners = &[
    ("max-iters", &["lloyd"], "lloyd"),
    ("tol", &["lloyd"], "lloyd"),
    ("batch-size", &["minibatch"], "minibatch"),
    ("batch-iters", &["minibatch"], "minibatch"),
];

/// Rejects stage-specific flags passed next to a stage they do not
/// configure — silently dropping one would make e.g. a `--rounds` sweep
/// against the wrong seeder produce identical outputs with no warning.
fn reject_foreign_flags(
    args: &Args,
    axis: &str,
    chosen: &str,
    table: FlagOwners,
) -> Result<(), CliError> {
    for (flag, owners, display) in table {
        if !owners.contains(&chosen) && !args.str_or(flag, "").is_empty() {
            return Err(CliError::Usage(format!(
                "--{flag} only applies to {axis} {display}, not '{chosen}'"
            )));
        }
    }
    Ok(())
}

/// Installs the `--init` seeding stage on the builder. Every seeder in
/// the workspace — core and streaming — is reachable here.
fn apply_init(builder: KMeans, args: &Args) -> Result<KMeans, CliError> {
    // Canonicalize synonyms first so the flag table matches one name.
    let init = match args.str_or("init", "kmeans-par").as_str() {
        "kmeanspp" => "kmeans++".to_string(),
        "kmeans||" => "kmeans-par".to_string(),
        "afkmc2" => "afk-mc2".to_string(),
        other => other.to_string(),
    };
    reject_foreign_flags(args, "--init", &init, INIT_FLAGS)?;
    Ok(match init.as_str() {
        "random" => builder.init(pipeline::Random),
        "kmeans++" => builder.init(pipeline::KMeansPlusPlus),
        "kmeans-par" => builder.init(pipeline::KMeansParallel(
            KMeansParallelConfig::default()
                .oversampling_factor(args.f64_or("factor", 2.0))
                .rounds(args.usize_or("rounds", 5)),
        )),
        "afk-mc2" => builder.init(pipeline::AfkMc2 {
            chain_length: args.usize_or("chain", 200),
        }),
        "partition" => builder.init(kmeans_streaming::Partition(PartitionConfig {
            groups: match args.usize_or("groups", 0) {
                0 if args.str_or("groups", "").is_empty() => None,
                0 => {
                    return Err(CliError::Usage(
                        "--groups must be at least 1 (omit for the sqrt(n/k) default)".into(),
                    ))
                }
                g => Some(g),
            },
        })),
        "coreset" => builder.init(kmeans_streaming::Coreset {
            coreset_size: args.usize_or("coreset-size", 200),
        }),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --init '{other}' \
                 (expected random|kmeans++|kmeans-par|afk-mc2|partition|coreset)"
            )))
        }
    })
}

/// Installs the `--refine` stage on the builder. Flags belonging to a
/// different refiner are rejected rather than silently dropped (the same
/// fail-loudly rule the builder applies to its own Lloyd knobs).
fn apply_refine(builder: KMeans, args: &Args) -> Result<KMeans, CliError> {
    let lloyd_config = LloydConfig {
        max_iterations: args.usize_or("max-iters", 300),
        tol: args.f64_or("tol", 0.0),
    };
    let refine = args.str_or("refine", "lloyd");
    reject_foreign_flags(args, "--refine", &refine, REFINE_FLAGS)?;
    Ok(match refine.as_str() {
        "lloyd" => builder.refine(pipeline::Lloyd(lloyd_config)),
        "minibatch" => builder.refine(pipeline::MiniBatch(MiniBatchConfig {
            batch_size: args.usize_or("batch-size", 1_024),
            iterations: args.usize_or("batch-iters", 100),
        })),
        "none" => builder.refine(pipeline::NoRefine),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --refine '{other}' (expected lloyd|minibatch|none)"
            )))
        }
    })
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (binary units).
fn parse_size(value: &str, flag: &str) -> Result<u64, CliError> {
    let t = value.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match t.as_bytes()[t.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (t.as_str(), 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "--{flag} expects a byte size like 1048576, 64k, 16m or 1g, got '{value}'"
            ))
        })
}

/// Flags that only mean something under `--distributed` (rejected
/// without it, matching the `--chunked` precedent).
const DIST_FLAGS: &[&str] = &["workers", "io-timeout", "manifest", "checkpoint"];

fn fit(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let centers_path = require(args, "centers-out")?;
    let k = args.usize_or("k", 0);
    if k == 0 {
        return Err(CliError::Usage("missing required --k".into()));
    }
    let chunked = args.flag("chunked");
    let distributed = args.flag("distributed");
    if chunked && distributed {
        return Err(CliError::Usage(
            "--chunked and --distributed are mutually exclusive".into(),
        ));
    }
    if !chunked {
        for flag in ["block-rows", "mem-budget"] {
            if !args.str_or(flag, "").is_empty() {
                return Err(CliError::Usage(format!(
                    "--{flag} only applies to chunked fits (pass --chunked)"
                )));
            }
        }
    }
    if !distributed {
        for flag in DIST_FLAGS {
            if !args.str_or(flag, "").is_empty() {
                return Err(CliError::Usage(format!(
                    "--{flag} only applies to distributed fits (pass --distributed)"
                )));
            }
        }
    }
    let mut builder = KMeans::params(k)
        .seed(args.u64_or("seed", 0))
        .parallelism(parallelism(args));
    match args.usize_or("shard-size", 0) {
        0 if args.str_or("shard-size", "").is_empty() => {}
        0 => {
            return Err(CliError::Usage(
                "--shard-size must be at least 1 (omit for the 8192 default)".into(),
            ))
        }
        s => builder = builder.shard_size(s),
    }
    let builder = apply_refine(apply_init(builder, args)?, args)?;
    // --trace arms the flight recorder: every backend round, pipeline
    // stage, and (distributed) coordinator conversation lands in FILE as
    // Chrome trace-event JSON. The recorder only reads values flowing
    // past it, so a traced fit stays bit-identical to an untraced one.
    let trace_path = args.str_or("trace", "");
    let recorder = if trace_path.is_empty() {
        Recorder::disabled()
    } else {
        Recorder::monotonic()
    };
    let builder = builder.recorder(recorder.clone());
    if distributed {
        fit_distributed(args, builder, k, &centers_path, out)?;
        return write_trace_file(&trace_path, &recorder, out);
    }
    let input = require(args, "input")?;

    // Ground truth is only available on the in-memory CSV path; chunked
    // sources stream features alone.
    type FitData = (
        kmeans_core::model::KMeansModel,
        usize,
        usize,
        Option<Vec<u32>>,
        Option<Arc<dyn ChunkedSource>>,
    );
    let (model, n, dim, truth, source): FitData = if chunked {
        // Each chunked flag belongs to exactly one input format; one that
        // does not match the detected format is a usage error, not a
        // silent no-op (the same fail-loudly rule as the stage flags).
        let source: Arc<dyn ChunkedSource> = if is_block_file(&input) {
            if !args.str_or("block-rows", "").is_empty() {
                return Err(CliError::Usage(
                    "--block-rows only applies to chunked csv input; \
                     a block file fixes its own block size at conversion"
                        .into(),
                ));
            }
            if args.flag("labels") {
                return Err(CliError::Usage(
                    "--labels does not apply to block-file input: labels are \
                     dropped at conversion (`skm convert --labels`); a block \
                     file stores features only"
                        .into(),
                ));
            }
            let budget = parse_size(&args.str_or("mem-budget", "256m"), "mem-budget")?;
            Arc::new(BlockFileSource::open(&input, budget)?)
        } else {
            if !args.str_or("mem-budget", "").is_empty() {
                return Err(CliError::Usage(
                    "--mem-budget only applies to chunked block-file input \
                     (csv keeps exactly one block resident; `skm convert` first \
                     to keep as many blocks resident as the budget holds)"
                        .into(),
                ));
            }
            let block_rows = args.usize_or("block-rows", 8192);
            Arc::new(CsvSource::open(&input, block_rows, label_mode(args))?)
        };
        let (n, dim) = (source.len(), source.dim());
        let model = builder
            .data_source_shared(Arc::clone(&source))
            .fit_chunked()?;
        (model, n, dim, None, Some(source))
    } else {
        let data = read_csv(&input, label_mode(args))?;
        let (n, dim) = (data.len(), data.dim());
        let model = builder.fit(data.points())?;
        let truth = data.labels().map(<[u32]>::to_vec);
        (model, n, dim, truth, None)
    };

    write_csv(
        &centers_path,
        &Dataset::new("centers", model.centers().clone()),
    )?;
    report_fit(out, &model, k, n, dim)?;
    writeln!(out, "centers -> {centers_path}")?;
    maybe_save_model(args, &model, out)?;

    if let Some(source) = source {
        let r = source.residency();
        let total = (n * dim * std::mem::size_of::<f64>()) as u64;
        writeln!(
            out,
            "chunked: peak resident {} B of {total} B feature data{}, \
             {} block loads, {} cache hits",
            r.peak_bytes,
            match r.budget_bytes {
                Some(b) => format!(" (budget {b} B)"),
                None => String::new(),
            },
            r.loads,
            r.hits,
        )?;
    }
    if let Some(truth) = truth {
        writeln!(
            out,
            "vs ground truth: nmi {:.4}, ari {:.4}, purity {:.4}",
            nmi(model.labels(), &truth),
            adjusted_rand_index(model.labels(), &truth),
            purity(model.labels(), &truth),
        )?;
    }
    let assignments = args.str_or("assignments-out", "");
    if !assignments.is_empty() {
        write_labels(&assignments, model.labels())?;
        writeln!(out, "assignments -> {assignments}")?;
    }
    write_trace_file(&trace_path, &recorder, out)?;
    Ok(())
}

/// `--trace FILE`: dump the recorder's timeline as one Chrome
/// trace-event JSON document (loadable in `chrome://tracing` and
/// perfetto, summarizable with `skm trace summarize`).
fn write_trace_file(path: &str, recorder: &Recorder, out: &mut dyn Write) -> Result<(), CliError> {
    if path.is_empty() {
        return Ok(());
    }
    let events = recorder.events();
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    write_chrome_trace(&mut writer, &events)?;
    writer.flush()?;
    writeln!(out, "trace -> {path} ({} events)", events.len())?;
    Ok(())
}

/// `--save-model`: persist the fit as an `SKMMDL01` model file (the
/// format `skm serve` loads and `--centers` auto-detects).
fn maybe_save_model(
    args: &Args,
    model: &kmeans_core::model::KMeansModel,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = args.str_or("save-model", "");
    if !path.is_empty() {
        model.save(std::path::Path::new(&path))?;
        writeln!(out, "model -> {path} (SKMMDL01)")?;
    }
    Ok(())
}

/// The one-line fit summary shared by the local and distributed paths.
fn report_fit(
    out: &mut dyn Write,
    model: &kmeans_core::model::KMeansModel,
    k: usize,
    n: usize,
    dim: usize,
) -> Result<(), CliError> {
    writeln!(
        out,
        "fit k={k} on {n} points x {dim} dims: init={}, refine={}, \
         cost {:.6e}, seed cost {:.6e}, {} refine iterations ({}), \
         {} seeding passes, {} distance evals (analytic: k per point per pass), \
         {} norm-bound prunes",
        model.init_name(),
        model.refiner_name(),
        model.cost(),
        model.init_stats().seed_cost,
        model.iterations(),
        if model.converged() {
            "converged"
        } else if model.refiner_name() == "minibatch" {
            // A completed fixed-budget run, not a truncated one.
            "fixed budget"
        } else {
            "iteration cap"
        },
        model.init_stats().passes,
        model.distance_computations(),
        model.pruned_by_norm_bound(),
    )?;
    Ok(())
}

/// `skm fit --distributed`: run the configured pipeline on remote
/// workers. Workers own the data (no `--input`); the `--workers` list is
/// global row order.
fn fit_distributed(
    args: &Args,
    builder: KMeans,
    k: usize,
    centers_path: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use kmeans_cluster::FitDistributed;

    if !args.str_or("input", "").is_empty() {
        return Err(CliError::Usage(
            "--input does not apply to distributed fits: workers own the data \
             (start each with `skm worker --data shard.skmb`)"
                .into(),
        ));
    }
    if args.flag("labels") {
        return Err(CliError::Usage(
            "--labels does not apply to distributed fits: shard files store features only".into(),
        ));
    }
    let workers_arg = require(args, "workers")?;
    let addrs: Vec<String> = workers_arg
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(CliError::Usage(
            "--workers expects a comma-separated list of host:port addresses".into(),
        ));
    }
    let timeout = std::time::Duration::from_secs(args.u64_or("io-timeout", 60).max(1));
    let mut cluster = kmeans_cluster::Cluster::connect(&addrs, Some(timeout))?;
    // Share the fit's recorder so coordinator conversation spans
    // (broadcast:*, recover:*) interleave with the round spans on one
    // timeline. A disabled recorder makes this a no-op.
    cluster.set_recorder(builder.configured_recorder().clone());

    let manifest_path = args.str_or("manifest", "");
    if !manifest_path.is_empty() {
        let manifest = kmeans_data::ShardManifest::load(&manifest_path)?;
        let summaries = cluster.worker_summaries();
        if manifest.shards.len() != summaries.len() {
            return Err(CliError::Usage(format!(
                "manifest lists {} shards but {} workers are connected",
                manifest.shards.len(),
                summaries.len()
            )));
        }
        if manifest.dim != cluster.dim() {
            return Err(CliError::Usage(format!(
                "manifest dim {} does not match worker dim {}",
                manifest.dim,
                cluster.dim()
            )));
        }
        for (i, (entry, summary)) in manifest.shards.iter().zip(&summaries).enumerate() {
            if entry.rows != summary.rows {
                return Err(CliError::Usage(format!(
                    "worker {i} serves {} rows but the manifest expects {} — is the \
                     --workers order the manifest's shard order?",
                    summary.rows, entry.rows
                )));
            }
        }
    }

    let (n, dim) = (cluster.global_n(), cluster.dim());
    let ckpt_path = args.str_or("checkpoint", "");
    let model = if ckpt_path.is_empty() {
        builder.fit_distributed(&mut cluster)
    } else {
        // Resumable fit: round results journal to an SKMCKPT1 file after
        // every round; re-running the same command after a coordinator
        // crash replays the journal and continues bit-identically. The
        // file is removed once the fit completes.
        builder.fit_distributed_checkpointed(&mut cluster, std::path::Path::new(&ckpt_path))
    }
    .map_err(CliError::KMeans)?;
    // Snapshot the round counter before `fetch_stats` — the stats fetch
    // is itself a broadcast round and would inflate the fit's count.
    let trips = cluster.round_trips();
    let worker_stats = cluster.fetch_stats()?;
    let summaries = cluster.worker_summaries();
    let blocked = cluster.blocked_wall();
    let passes = cluster.data_passes();
    let (sent, received) = (cluster.bytes_sent(), cluster.bytes_received());
    cluster.shutdown();

    write_csv(
        centers_path,
        &Dataset::new("centers", model.centers().clone()),
    )?;
    report_fit(out, &model, k, n, dim)?;
    writeln!(out, "centers -> {centers_path}")?;
    maybe_save_model(args, &model, out)?;
    writeln!(
        out,
        "distributed: {} workers, {passes} data passes, {trips} wire round trips, \
         {} B on the wire ({sent} B sent, {received} B received), coordinator blocked {blocked:?}",
        summaries.len(),
        sent + received,
    )?;
    for (i, (summary, stats)) in summaries.iter().zip(&worker_stats).enumerate() {
        writeln!(
            out,
            "  worker {i}: rows [{}..{}), {} B to / {} B from worker, \
             peak resident {} B{}, {} block loads, {} cache hits",
            summary.start_row,
            summary.start_row + summary.rows,
            summary.bytes_sent,
            summary.bytes_received,
            stats.peak_bytes,
            if stats.budget_bytes == u64::MAX {
                String::new()
            } else {
                format!(" (budget {} B)", stats.budget_bytes)
            },
            stats.loads,
            stats.hits,
        )?;
    }
    let assignments = args.str_or("assignments-out", "");
    if !assignments.is_empty() {
        write_labels(&assignments, model.labels())?;
        writeln!(out, "assignments -> {assignments}")?;
    }
    Ok(())
}

/// `skm shard`: split a block file into per-worker shard files plus a
/// manifest (`kmeans_data::shard`).
fn shard(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = require(args, "input")?;
    let out_prefix = require(args, "out-prefix")?;
    let workers = args.usize_or("workers", 0);
    if workers == 0 {
        return Err(CliError::Usage("missing required --workers".into()));
    }
    if !is_block_file(&input) {
        return Err(CliError::Usage(format!(
            "'{input}' is not an SKMBLK01 block file; run `skm convert` first"
        )));
    }
    // Default alignment: exactly the boundary grid a default-shard-size
    // fit will validate (`sum_shard_size_for` nests the accumulation grid
    // on the executor grid), probed from the input's row count. An
    // explicit --align matches an explicit fit --shard-size instead.
    let align = match args.usize_or("align", 0) {
        0 if args.str_or("align", "").is_empty() => {
            let probe = BlockFileSource::open(&input, u64::MAX / 2)?;
            kmeans_core::assign::sum_shard_size_for(
                kmeans_par::shards::DEFAULT_SHARD_SIZE,
                probe.len(),
            )
        }
        0 => {
            return Err(CliError::Usage(
                "--align must be at least 1 (omit to match the default fit shard grid)".into(),
            ))
        }
        a => a,
    };
    let manifest = kmeans_data::shard_block_file(&input, &out_prefix, workers, align)?;
    writeln!(
        out,
        "sharded {} points x {} dims into {} shards (boundaries on the {align}-row grid) \
         -> {out_prefix}.manifest",
        manifest.total_rows,
        manifest.dim,
        manifest.shards.len(),
    )?;
    for (i, s) in manifest.shards.iter().enumerate() {
        writeln!(
            out,
            "  shard {i}: rows [{}..{}) -> {}",
            s.start_row,
            s.start_row + s.rows,
            s.path
        )?;
    }
    Ok(())
}

/// `skm worker`: serve one shard of the data to a distributed
/// coordinator over TCP.
fn worker(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let listen = require(args, "listen")?;
    let data = require(args, "data")?;
    if !is_block_file(&data) {
        return Err(CliError::Usage(format!(
            "'{data}' is not an SKMBLK01 block file; worker shards come from \
             `skm convert` / `skm shard`"
        )));
    }
    let budget = parse_size(&args.str_or("mem-budget", "256m"), "mem-budget")?;
    let source = BlockFileSource::open(&data, budget)?;
    let timeout = std::time::Duration::from_secs(args.u64_or("io-timeout", 600).max(1));
    let once = args.flag("once");
    let server = kmeans_cluster::TcpWorkerServer::bind(&listen)?;
    writeln!(
        out,
        "worker serving {} rows x {} dims from {data} on {}{}",
        source.len(),
        source.dim(),
        server.local_addr()?,
        if once { " (one session)" } else { "" },
    )?;
    out.flush()?;
    let mut w = kmeans_cluster::Worker::from_boxed(Box::new(source), parallelism(args));
    if args.flag("log") {
        // --log: one structured line per served frame on stderr (stdout
        // stays machine-readable). The hook runs on the session thread,
        // so lines appear live while a coordinator drives the worker.
        w.set_recorder(Recorder::monotonic());
        w.set_frame_log(|ev| eprintln!("{}", frame_log_line(ev)));
    }
    server.serve(w, Some(timeout), once)?;
    Ok(())
}

/// One `--log` line: `frame:assign dur_us=123 rows=96 bytes=410`, the
/// span name followed by its duration and structured arguments.
fn frame_log_line(ev: &SpanEvent) -> String {
    let mut line = format!("[skm worker] {} dur_us={}", ev.name, ev.dur_ns / 1_000);
    for (name, value) in &ev.args {
        line.push_str(&format!(" {name}={value}"));
    }
    line
}

/// `skm serve`: the online assignment service — load an `SKMMDL01`
/// model and answer predict/cost queries over TCP, micro-batching
/// concurrent clients through one prepared kernel per model revision.
fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let listen = require(args, "listen")?;
    let model_path = require(args, "model")?;
    let batch_cap = match args.usize_or("batch-cap", 0) {
        0 if args.str_or("batch-cap", "").is_empty() => DEFAULT_MAX_BATCH_POINTS,
        0 => {
            return Err(CliError::Usage(format!(
                "--batch-cap must be at least 1 (omit for the {DEFAULT_MAX_BATCH_POINTS} default)"
            )))
        }
        c => c,
    };
    let queue_cap = match args.usize_or("queue-cap", 0) {
        0 if args.str_or("queue-cap", "").is_empty() => DEFAULT_QUEUE_CAP_POINTS,
        0 => {
            return Err(CliError::Usage(format!(
                "--queue-cap must be at least 1 (omit for the {DEFAULT_QUEUE_CAP_POINTS} default)"
            )))
        }
        c => c,
    };
    if !is_model_file(&model_path) {
        return Err(CliError::Usage(format!(
            "'{model_path}' is not an SKMMDL01 model file; save one with \
             `skm fit --save-model`"
        )));
    }
    let record = load_model_file(&model_path)?;
    let engine = ServeEngine::with_config(
        record,
        kmeans_par::Executor::new(parallelism(args)),
        EngineConfig {
            batch_cap,
            queue_cap,
            ..EngineConfig::default()
        },
    )?;
    let timeout = std::time::Duration::from_secs(args.u64_or("io-timeout", 600).max(1));
    let once = args.flag("once");
    let server = TcpServeServer::bind(&listen)?;
    let version = engine.current();
    writeln!(
        out,
        "serving k={} dim={} (init={}, refine={}, revision {}) from {model_path} on {}{}",
        version.predictor().k(),
        version.predictor().dim(),
        version.init_name,
        version.refiner_name,
        version.revision,
        server.local_addr()?,
        if once { " (one session)" } else { "" },
    )?;
    // --metrics-listen: a separate plain-HTTP port answering GET /metrics
    // with the engine's live counters and latency quantiles (Prometheus
    // text exposition) — curl-readable while the serve port is under load.
    let metrics_arg = args.str_or("metrics-listen", "");
    let metrics_handle = if metrics_arg.is_empty() {
        None
    } else {
        let scrape_timeout =
            std::time::Duration::from_secs(args.u64_or("metrics-timeout", 5).max(1));
        let metrics = kmeans_serve::MetricsServer::bind_with_timeout(&metrics_arg, scrape_timeout)?;
        writeln!(out, "metrics on http://{}/metrics", metrics.local_addr()?)?;
        Some(metrics.spawn(engine.clone()))
    };
    out.flush()?;
    let shutdown = engine.clone();
    let served = server.serve(engine, Some(timeout), once);
    if let Some(handle) = metrics_handle {
        // A --once session may end without a Shutdown message; raise the
        // flag ourselves so the metrics accept loop exits and joins.
        shutdown.request_shutdown();
        match handle.join() {
            Ok(result) => result?,
            Err(_) => {
                return Err(CliError::Io(std::io::Error::other(
                    "metrics endpoint thread panicked",
                )))
            }
        }
    }
    served?;
    Ok(())
}

/// Loads query centers from either an `SKMMDL01` model file (detected by
/// magic — the same loader `skm serve` uses) or a centers CSV.
fn load_centers(path: &str) -> Result<PointMatrix, CliError> {
    if is_model_file(path) {
        Ok(load_model_file(path)?.centers)
    } else {
        Ok(read_csv(path, LabelColumn::None)?.into_parts().1)
    }
}

/// `--server` for predict/evaluate: reject `--centers` (the server owns
/// the model) and dial the endpoint. A comma-separated `addr` is a
/// replica set: the client dials the first reachable one and
/// transparently fails over on disconnect/drain/overload under a
/// bounded, jittered exponential backoff (`--retries` attempts).
fn connect_server(args: &Args, addr: &str) -> Result<ServeClient, CliError> {
    if !args.str_or("centers", "").is_empty() {
        return Err(CliError::Usage(
            "--centers does not combine with --server: the server owns the model".into(),
        ));
    }
    let timeout = std::time::Duration::from_secs(args.u64_or("io-timeout", 60).max(1));
    let replicas: Vec<String> = addr
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let mut client = match replicas.as_slice() {
        [] => {
            return Err(CliError::Usage(
                "--server needs at least one address".into(),
            ))
        }
        [single] => ServeClient::connect(single, Some(timeout))?,
        many => {
            let retries = args.u64_or("retries", 5).max(1) as u32;
            let policy = RetryPolicy::exponential(
                retries,
                std::time::Duration::from_millis(100),
                std::time::Duration::from_secs(2),
            );
            ServeClient::connect_any(many, Some(timeout), policy)?
        }
    };
    let deadline = args.u64_or("deadline-ms", 0);
    if deadline > 0 {
        client.set_deadline(Some(deadline));
    }
    Ok(client)
}

/// `skm drain`: begin a graceful drain of one running `skm serve`
/// process — it stops admitting work, answers everything already
/// admitted, and exits. The rolling-restart primitive: drain, wait for
/// exit, start the replacement.
fn drain(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let server = require(args, "server")?;
    if server.contains(',') {
        return Err(CliError::Usage(
            "skm drain targets exactly one server (no replica lists): \
             draining is per-process"
                .into(),
        ));
    }
    let timeout = std::time::Duration::from_secs(args.u64_or("io-timeout", 60).max(1));
    let mut client = ServeClient::connect(&server, Some(timeout))?;
    let owed = client.drain()?;
    writeln!(
        out,
        "draining {server}: {owed} admitted points still owed; \
         the server exits once they are answered"
    )?;
    Ok(())
}

/// `skm convert`: stream a CSV into the binary block format (never
/// materializes the dataset; see `kmeans_data::blockfile`).
fn convert(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = require(args, "input")?;
    let out_path = require(args, "out")?;
    let block_rows = args.usize_or("block-rows", 8192);
    let (rows, dim) = csv_to_block_file(&input, &out_path, block_rows, label_mode(args))?;
    writeln!(
        out,
        "converted {rows} points x {dim} dims into {} blocks of {block_rows} rows -> {out_path}",
        rows.div_ceil(block_rows),
    )?;
    Ok(())
}

/// The model behind `--centers` (a centers CSV or a model file),
/// prepared once: local predict and evaluate answer from its sweeps, as
/// a server on the same model does.
fn local_predictor(args: &Args) -> Result<PreparedPredictor, CliError> {
    let centers = load_centers(&require(args, "centers")?)?;
    let exec = kmeans_par::Executor::new(parallelism(args));
    Ok(PreparedPredictor::new(centers, exec))
}

fn predict(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = require(args, "input")?;
    let out_path = require(args, "out")?;
    let data = read_csv(&input, label_mode(args))?;
    let server = args.str_or("server", "");
    if !server.is_empty() {
        let mut client = connect_server(args, &server)?;
        // Stream large inputs as bounded chunks so no single request
        // exceeds the server's batch cap; the concatenated labels are
        // byte-identical to one unchunked predict. Default chunk size is
        // the cap the server advertised.
        let chunk = match args.usize_or("chunk-points", 0) {
            0 => client.info().batch_cap as usize,
            c => c,
        };
        let prediction = client.predict_chunked(data.points(), chunk)?;
        write_labels(&out_path, &prediction.labels)?;
        writeln!(
            out,
            "predicted {} points against {} centers served by {server} \
             (model revision {}) -> {out_path}",
            data.len(),
            client.info().k,
            prediction.revision,
        )?;
        return Ok(());
    }
    let predictor = local_predictor(args)?;
    let labels = predictor.predict(data.points())?;
    write_labels(&out_path, &labels)?;
    writeln!(
        out,
        "predicted {} points against {} centers -> {out_path}",
        data.len(),
        predictor.k()
    )?;
    Ok(())
}

fn evaluate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = require(args, "input")?;
    let data = read_csv(&input, label_mode(args))?;
    let server = args.str_or("server", "");
    let (labels, cost, k) = if server.is_empty() {
        // One sweep gives the labels and the cost, as a served evaluate.
        let predictor = local_predictor(args)?;
        let (labels, d2, _) = predictor.assign(data.points())?;
        (labels, predictor.cost_from_d2(&d2), predictor.k())
    } else {
        let mut client = connect_server(args, &server)?;
        let prediction = client.predict(data.points())?;
        let k = client.info().k as usize;
        (prediction.labels, prediction.cost, k)
    };
    let mut sizes = vec![0u64; k];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let empty = sizes.iter().filter(|&&s| s == 0).count();
    writeln!(
        out,
        "cost {cost:.6e} over {} points, {k} centers ({empty} empty)",
        data.len(),
    )?;
    if let Some(truth) = data.labels() {
        writeln!(
            out,
            "vs ground truth: nmi {:.4}, ari {:.4}, purity {:.4}",
            nmi(&labels, truth),
            adjusted_rand_index(&labels, truth),
            purity(&labels, truth),
        )?;
    }
    let sample = args.usize_or("silhouette-sample", 0);
    if sample > 0 {
        match silhouette_sampled(data.points(), &labels, sample, args.u64_or("seed", 0)) {
            Some(s) => writeln!(out, "silhouette (sample {sample}): {s:.4}")?,
            None => writeln!(out, "silhouette: undefined (fewer than 2 clusters)")?,
        }
    }
    Ok(())
}

/// `skm trace summarize FILE`: aggregate a `--trace` capture into a
/// per-span-kind breakdown table — how often each round / pipeline stage
/// / coordinator conversation ran, where the wall time went, what moved
/// on the wire, and what the kernels spent.
fn trace(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match args.positional(0) {
        Some("summarize") => {}
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown trace action '{other}' (expected `skm trace summarize FILE`)"
            )))
        }
        None => {
            return Err(CliError::Usage(
                "missing trace action (expected `skm trace summarize FILE`)".into(),
            ))
        }
    }
    let path = args.positional(1).ok_or_else(|| {
        CliError::Usage("missing trace file (expected `skm trace summarize FILE`)".into())
    })?;
    let text = std::fs::read_to_string(path)?;
    let events = parse_chrome_trace(&text)
        .map_err(|e| CliError::Usage(format!("'{path}' is not a Chrome trace: {e}")))?;
    if events.is_empty() {
        writeln!(out, "0 events in {path}")?;
        return Ok(());
    }

    // One row per (category, span name), folding the structured span
    // arguments every tier attaches (wire_bytes, kernel counters).
    #[derive(Default)]
    struct SpanAgg {
        count: u64,
        dur_ns: u64,
        wire_bytes: u64,
        distance_computations: u64,
        pruned: u64,
    }
    let arg_total = |ev: &SpanEvent, name: &str| -> u64 {
        ev.args
            .iter()
            .find_map(|(n, v)| match v {
                ArgValue::U64(u) if n == name => Some(*u),
                _ => None,
            })
            .unwrap_or(0)
    };
    let mut rows: std::collections::BTreeMap<(String, String), SpanAgg> =
        std::collections::BTreeMap::new();
    let (mut first_ns, mut last_ns, mut round_ns) = (u64::MAX, 0u64, 0u64);
    for ev in &events {
        first_ns = first_ns.min(ev.start_ns);
        last_ns = last_ns.max(ev.start_ns + ev.dur_ns);
        if ev.cat == "round" {
            round_ns += ev.dur_ns;
        }
        let agg = rows.entry((ev.cat.clone(), ev.name.clone())).or_default();
        agg.count += 1;
        agg.dur_ns += ev.dur_ns;
        agg.wire_bytes += arg_total(ev, "wire_bytes");
        agg.distance_computations += arg_total(ev, "distance_computations");
        agg.pruned += arg_total(ev, "pruned_by_norm_bound");
    }
    let wall_ns = last_ns.saturating_sub(first_ns);
    let share = |ns: u64| {
        if wall_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / wall_ns as f64
        }
    };

    // Heaviest spans first; the BTreeMap made ties deterministic.
    let mut sorted: Vec<_> = rows.into_iter().collect();
    sorted.sort_by_key(|b| std::cmp::Reverse(b.1.dur_ns));
    writeln!(
        out,
        "{} events over {} in {path}",
        events.len(),
        format_ns(wall_ns),
    )?;
    writeln!(
        out,
        "{:<28} {:>6} {:>12} {:>7} {:>12} {:>12} {:>10}",
        "span", "count", "time", "share", "wire B", "dist evals", "prunes"
    )?;
    for ((cat, name), agg) in &sorted {
        writeln!(
            out,
            "{:<28} {:>6} {:>12} {:>6.1}% {:>12} {:>12} {:>10}",
            format!("{cat}/{name}"),
            agg.count,
            format_ns(agg.dur_ns),
            share(agg.dur_ns),
            agg.wire_bytes,
            agg.distance_computations,
            agg.pruned,
        )?;
    }
    writeln!(
        out,
        "round spans cover {:.1}% of the wall clock ({} of {})",
        share(round_ns),
        format_ns(round_ns),
        format_ns(wall_ns),
    )?;
    Ok(())
}

/// Nanoseconds at a human scale (`1.234s`, `5.678ms`, `910ns`).
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Writes one label per line.
fn write_labels(path: &str, labels: &[u32]) -> Result<(), CliError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    for l in labels {
        writeln!(writer, "{l}")?;
    }
    writer.flush()?;
    Ok(())
}

/// Re-exported for integration tests.
pub fn read_points(path: &str) -> Result<PointMatrix, CliError> {
    Ok(read_csv(path, LabelColumn::None)?.into_parts().1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("skm_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn run(command: &str, a: &Args) -> Result<String, CliError> {
        let mut buf = Vec::new();
        dispatch(command, a, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn generate_fit_evaluate_round_trip() {
        let data = tmp("gauss.csv");
        let centers = tmp("centers.csv");
        let labels = tmp("labels.csv");

        let out = run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 5 --n 400 --variance 100 --seed 3 --out {data}"
            )),
        )
        .unwrap();
        assert!(out.contains("400 points x 15 dims"), "{out}");

        let out = run(
            "fit",
            &args(&format!(
                "--input {data} --labels --k 5 --seed 1 --centers-out {centers} \
                 --assignments-out {labels}"
            )),
        )
        .unwrap();
        assert!(out.contains("fit k=5"), "{out}");
        assert!(out.contains("nmi"), "{out}");

        let out = run(
            "evaluate",
            &args(&format!(
                "--input {data} --labels --centers {centers} --silhouette-sample 50"
            )),
        )
        .unwrap();
        assert!(out.contains("cost"), "{out}");
        assert!(out.contains("silhouette"), "{out}");

        // Assignments file has one label per point.
        let lines = std::fs::read_to_string(&labels).unwrap();
        assert_eq!(lines.lines().count(), 400);
        // Centers file round-trips as 5×15.
        let c = read_points(&centers).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.dim(), 15);
    }

    #[test]
    fn predict_against_saved_centers() {
        let data = tmp("gauss2.csv");
        let centers = tmp("centers2.csv");
        let predicted = tmp("pred2.csv");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 3 --n 120 --seed 5 --out {data} --no-labels"
            )),
        )
        .unwrap();
        run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --seed 2 --centers-out {centers}"
            )),
        )
        .unwrap();
        let out = run(
            "predict",
            &args(&format!(
                "--input {data} --centers {centers} --out {predicted}"
            )),
        )
        .unwrap();
        assert!(
            out.contains("predicted 120 points against 3 centers"),
            "{out}"
        );
        let lines = std::fs::read_to_string(&predicted).unwrap();
        assert!(lines.lines().all(|l| l.parse::<u32>().unwrap() < 3));
    }

    #[test]
    fn afk_mc2_init_fits_and_reports() {
        let data = tmp("mc2.csv");
        let centers = tmp("mc2_centers.csv");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 4 --n 200 --variance 50 --seed 6 --out {data}"
            )),
        )
        .unwrap();
        let out = run(
            "fit",
            &args(&format!(
                "--input {data} --labels --k 4 --init afk-mc2 --chain 50 --seed 1 \
                 --centers-out {centers}"
            )),
        )
        .unwrap();
        assert!(out.contains("init=afk-mc2"), "{out}");
        assert!(out.contains("refine=lloyd"), "{out}");
        assert!(out.contains("nmi"), "{out}");
        let c = read_points(&centers).unwrap();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn every_init_value_is_accepted() {
        let data = tmp("grid_init.csv");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 4 --n 300 --variance 50 --seed 1 --out {data}"
            )),
        )
        .unwrap();
        for init in [
            "random",
            "kmeans++",
            "kmeans-par",
            "afk-mc2",
            "partition",
            "coreset",
        ] {
            let centers = tmp(&format!("grid_{init}.csv"));
            let out = run(
                "fit",
                &args(&format!(
                    "--input {data} --labels --k 4 --init {init} --seed 2 \
                     --centers-out {centers}"
                )),
            )
            .unwrap();
            assert!(out.contains("fit k=4"), "{init}: {out}");
            assert!(out.contains(&format!("init={init}")), "{init}: {out}");
            assert_eq!(read_points(&centers).unwrap().len(), 4, "{init}");
        }
    }

    #[test]
    fn every_refine_value_is_accepted() {
        let data = tmp("grid_refine.csv");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 3 --n 240 --variance 50 --seed 4 --out {data}"
            )),
        )
        .unwrap();
        for refine in ["lloyd", "minibatch", "none"] {
            let centers = tmp(&format!("grid_r_{refine}.csv"));
            let extra = if refine == "minibatch" {
                "--batch-size 64 --batch-iters 50"
            } else {
                ""
            };
            let out = run(
                "fit",
                &args(&format!(
                    "--input {data} --k 3 --refine {refine} --seed 2 {extra} \
                     --centers-out {centers}"
                )),
            )
            .unwrap();
            assert!(out.contains(&format!("refine={refine}")), "{refine}: {out}");
            assert!(out.contains("distance evals"), "{refine}: {out}");
            assert_eq!(read_points(&centers).unwrap().len(), 3, "{refine}");
        }
        // Seed-only run reports zero refine iterations.
        let centers = tmp("grid_r_none2.csv");
        let out = run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --refine none --seed 2 --centers-out {centers}"
            )),
        )
        .unwrap();
        assert!(out.contains("0 refine iterations"), "{out}");
    }

    #[test]
    fn unknown_init_and_refine_are_usage_errors() {
        let data = tmp("bad_flags.csv");
        std::fs::write(&data, "1.0,2.0\n3.0,4.0\n5.0,6.0\n").unwrap();
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --init nope --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown --init"), "{err}");
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --refine nope --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown --refine"), "{err}");
        // Flags of one refiner next to another are rejected, not dropped.
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --refine minibatch --tol 0.01 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--tol only applies"), "{err}");
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --refine none --batch-size 8 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("--batch-size only applies"),
            "{err}"
        );
        // Same rule on the --init axis: seeder flags for another seeder.
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --init kmeans++ --rounds 10 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--rounds only applies"), "{err}");
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --init partition --chain 5 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--chain only applies"), "{err}");
    }

    #[test]
    fn all_generators_work() {
        for dataset in ["spam", "kdd"] {
            let data = tmp(&format!("{dataset}.csv"));
            let out = run(
                "generate",
                &args(&format!(
                    "--dataset {dataset} --n 300 --seed 1 --out {data}"
                )),
            )
            .unwrap();
            assert!(out.contains("300 points"), "{out}");
            let centers = tmp(&format!("{dataset}_fit.csv"));
            let out = run(
                "fit",
                &args(&format!(
                    "--input {data} --labels --k 4 --centers-out {centers}"
                )),
            )
            .unwrap();
            assert!(out.contains("fit k=4"), "{dataset}: {out}");
        }
    }

    #[test]
    fn chunked_fit_matches_in_memory_fit_for_both_formats() {
        let data = tmp("chunk.csv");
        let blocks = tmp("chunk.skmb");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 4 --n 500 --variance 50 --seed 9 --out {data} --no-labels"
            )),
        )
        .unwrap();
        // In-memory reference.
        let mem_centers = tmp("chunk_mem.csv");
        run(
            "fit",
            &args(&format!(
                "--input {data} --k 4 --seed 3 --centers-out {mem_centers}"
            )),
        )
        .unwrap();
        // Chunked over CSV.
        let csv_centers = tmp("chunk_csv.csv");
        let out = run(
            "fit",
            &args(&format!(
                "--input {data} --k 4 --seed 3 --chunked --block-rows 64 \
                 --centers-out {csv_centers}"
            )),
        )
        .unwrap();
        assert!(out.contains("chunked: peak resident"), "{out}");
        // Chunked over a converted block file with a small budget.
        let out = run(
            "convert",
            &args(&format!("--input {data} --out {blocks} --block-rows 64")),
        )
        .unwrap();
        assert!(out.contains("converted 500 points"), "{out}");
        let blk_centers = tmp("chunk_blk.csv");
        let out = run(
            "fit",
            &args(&format!(
                "--input {blocks} --k 4 --seed 3 --chunked --mem-budget 32k \
                 --centers-out {blk_centers}"
            )),
        )
        .unwrap();
        assert!(out.contains("budget 32768 B"), "{out}");
        // The shortest-round-trip CSV float formatting makes bit-identical
        // centers file-identical.
        let reference = std::fs::read_to_string(&mem_centers).unwrap();
        assert_eq!(std::fs::read_to_string(&csv_centers).unwrap(), reference);
        assert_eq!(std::fs::read_to_string(&blk_centers).unwrap(), reference);
    }

    #[test]
    fn chunked_flags_are_validated() {
        let data = tmp("chunk_flags.csv");
        std::fs::write(&data, "1.0,2.0\n3.0,4.0\n5.0,6.0\n").unwrap();
        // Chunked-only flags without --chunked are rejected.
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --block-rows 64 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("--block-rows only applies"),
            "{err}"
        );
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --mem-budget 1m --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("--mem-budget only applies"),
            "{err}"
        );
        // A chunked flag that does not match the input format is rejected,
        // not silently ignored: --mem-budget next to csv input...
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --chunked --mem-budget 1m --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("--mem-budget only applies"),
            "{err}"
        );
        // ...and --block-rows next to a block file.
        let blocks = tmp("chunk_flags.skmb");
        run(
            "convert",
            &args(&format!("--input {data} --out {blocks} --block-rows 2")),
        )
        .unwrap();
        let err = run(
            "fit",
            &args(&format!(
                "--input {blocks} --k 2 --chunked --block-rows 2 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("--block-rows only applies"),
            "{err}"
        );
        // --labels next to a block file is meaningless (labels were handled
        // at conversion) — rejected, not silently ignored.
        let err = run(
            "fit",
            &args(&format!(
                "--input {blocks} --k 2 --chunked --labels --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--labels does not apply"), "{err}");
        // Stages without a chunked formulation fail with a typed error.
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --chunked --init afk-mc2 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("does not support chunked"),
            "{err}"
        );
        // Bad size strings are usage errors.
        let err = parse_size("64q", "mem-budget").unwrap_err();
        assert!(err.to_string().contains("byte size"), "{err}");
        assert_eq!(parse_size("64k", "x").unwrap(), 65536);
        assert_eq!(parse_size("2m", "x").unwrap(), 2 << 20);
        assert_eq!(parse_size("1g", "x").unwrap(), 1 << 30);
        assert_eq!(parse_size("123", "x").unwrap(), 123);
    }

    #[test]
    fn removed_hamerly_refiner_is_a_usage_error() {
        let data = tmp("hamerly.csv");
        std::fs::write(&data, "1.0,2.0\n3.0,4.0\n5.0,6.0\n").unwrap();
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --refine hamerly --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("unknown --refine 'hamerly' (expected lloyd|minibatch|none)"),
            "{err}"
        );
    }

    #[test]
    fn usage_lists_every_init_and_refine_value() {
        let out = run("help", &args("")).unwrap();
        for value in [
            "random",
            "kmeans++",
            "kmeans-par",
            "afk-mc2",
            "partition",
            "coreset",
            "lloyd",
            "minibatch",
            "none",
        ] {
            assert!(out.contains(value), "usage() missing '{value}': {out}");
        }
    }

    #[test]
    fn usage_lists_every_subcommand_and_distributed_flag() {
        let out = run("help", &args("")).unwrap();
        for value in [
            "skm generate",
            "skm fit",
            "skm convert",
            "skm shard",
            "skm worker",
            "skm predict",
            "skm evaluate",
            "--distributed",
            "--workers",
            "--io-timeout",
            "--manifest",
            "--align",
            "--listen",
            "--once",
            "--shard-size",
            "skm serve",
            "--save-model",
            "--server",
            "--batch-cap",
            "--model",
            "skm trace",
            "--trace",
            "--metrics-listen",
            "--log",
            "skm drain",
            "--queue-cap",
            "--deadline-ms",
            "--chunk-points",
            "--retries",
            "--metrics-timeout",
            "/readyz",
        ] {
            assert!(out.contains(value), "usage() missing '{value}': {out}");
        }
    }

    #[test]
    fn traced_fit_writes_a_parseable_trace_and_changes_nothing() {
        let data = tmp("trace.csv");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 3 --n 200 --variance 60 --seed 7 --out {data} --no-labels"
            )),
        )
        .unwrap();
        // Untraced reference.
        let plain_centers = tmp("trace_plain.csv");
        run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --seed 5 --centers-out {plain_centers}"
            )),
        )
        .unwrap();
        // Traced fit: bit-identical centers plus a Chrome trace whose
        // spans cover every tier the in-memory path exercises.
        let traced_centers = tmp("trace_traced.csv");
        let trace_file = tmp("trace_fit.json");
        let out = run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --seed 5 --centers-out {traced_centers} \
                 --trace {trace_file}"
            )),
        )
        .unwrap();
        assert!(out.contains("trace -> "), "{out}");
        assert_eq!(
            std::fs::read_to_string(&traced_centers).unwrap(),
            std::fs::read_to_string(&plain_centers).unwrap()
        );
        let events =
            kmeans_obs::parse_chrome_trace(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        for name in [
            "stage:init",
            "stage:refine",
            "assign",
            "tracker_update+sample",
        ] {
            assert!(
                events.iter().any(|e| e.name == name),
                "trace missing span '{name}'"
            );
        }
        assert!(events.iter().all(|e| !e.cat.is_empty()));

        // The summarize action prints a per-span table off the same file.
        let out = run("trace", &args(&format!("summarize {trace_file}"))).unwrap();
        assert!(out.contains("round/assign"), "{out}");
        assert!(out.contains("fit/stage:refine"), "{out}");
        assert!(out.contains("round spans cover"), "{out}");

        // Chunked fits trace through the same recorder.
        let chunk_centers = tmp("trace_chunk.csv");
        let chunk_trace = tmp("trace_chunk.json");
        run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --seed 5 --chunked --block-rows 64 \
                 --centers-out {chunk_centers} --trace {chunk_trace}"
            )),
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&chunk_centers).unwrap(),
            std::fs::read_to_string(&plain_centers).unwrap()
        );
        let events =
            kmeans_obs::parse_chrome_trace(&std::fs::read_to_string(&chunk_trace).unwrap())
                .unwrap();
        assert!(events
            .iter()
            .any(|e| e.name == "assign" && e.cat == "round"));
    }

    #[test]
    fn trace_actions_are_validated() {
        let err = run("trace", &args("")).unwrap_err();
        assert!(err.to_string().contains("missing trace action"), "{err}");
        let err = run("trace", &args("frobnicate /tmp/x")).unwrap_err();
        assert!(err.to_string().contains("unknown trace action"), "{err}");
        let err = run("trace", &args("summarize")).unwrap_err();
        assert!(err.to_string().contains("missing trace file"), "{err}");
        let bad = tmp("not_a_trace.json");
        std::fs::write(&bad, "{\"other\": []}").unwrap();
        let err = run("trace", &args(&format!("summarize {bad}"))).unwrap_err();
        assert!(err.to_string().contains("not a Chrome trace"), "{err}");
    }

    #[test]
    fn save_model_serves_predict_and_evaluate() {
        let data = tmp("serve.csv");
        let centers = tmp("serve_centers.csv");
        let model = tmp("serve_model.skmm");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 3 --n 150 --variance 80 --seed 11 --out {data} --no-labels"
            )),
        )
        .unwrap();
        let out = run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --seed 4 --centers-out {centers} --save-model {model}"
            )),
        )
        .unwrap();
        assert!(out.contains("model -> "), "{out}");
        assert!(out.contains("SKMMDL01"), "{out}");

        // --centers auto-detects the model file by magic; labels match the
        // centers-CSV path exactly (shortest-round-trip CSV is bit-exact).
        let from_csv = tmp("serve_pred_csv.txt");
        let from_model = tmp("serve_pred_model.txt");
        run(
            "predict",
            &args(&format!(
                "--input {data} --centers {centers} --out {from_csv}"
            )),
        )
        .unwrap();
        let out = run(
            "predict",
            &args(&format!(
                "--input {data} --centers {model} --out {from_model}"
            )),
        )
        .unwrap();
        assert!(
            out.contains("predicted 150 points against 3 centers"),
            "{out}"
        );
        let local_labels = std::fs::read_to_string(&from_csv).unwrap();
        assert_eq!(std::fs::read_to_string(&from_model).unwrap(), local_labels);
        let local_eval = run(
            "evaluate",
            &args(&format!("--input {data} --centers {model}")),
        )
        .unwrap();
        assert!(local_eval.contains("3 centers"), "{local_eval}");

        // Served predict/evaluate through a real TCP server: the labels
        // file is identical to the local predict's.
        let record = load_model_file(&model).unwrap();
        let engine =
            ServeEngine::new(record, kmeans_par::Executor::new(Parallelism::Threads(2))).unwrap();
        let (addr, handle) =
            kmeans_serve::spawn_tcp_serve(engine, Some(std::time::Duration::from_secs(30)))
                .unwrap();
        let served = tmp("serve_pred_tcp.txt");
        let out = run(
            "predict",
            &args(&format!("--input {data} --server {addr} --out {served}")),
        )
        .unwrap();
        assert!(out.contains("model revision 1"), "{out}");
        assert_eq!(std::fs::read_to_string(&served).unwrap(), local_labels);
        let out = run(
            "evaluate",
            &args(&format!("--input {data} --server {addr}")),
        )
        .unwrap();
        assert!(out.contains("3 centers"), "{out}");
        // Local and served evaluate answer from the same sweep: the same
        // cost line.
        let cost_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("cost "))
                .map(String::from)
        };
        assert!(cost_line(&out).is_some(), "{out}");
        assert_eq!(cost_line(&local_eval), cost_line(&out));
        ServeClient::connect(&addr.to_string(), Some(std::time::Duration::from_secs(30)))
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn serve_and_server_flags_are_validated() {
        let csv = tmp("serve_flags.csv");
        std::fs::write(&csv, "1.0,2.0\n3.0,4.0\n").unwrap();
        // serve needs a model file, not a CSV.
        let err = run(
            "serve",
            &args(&format!("--listen 127.0.0.1:0 --model {csv}")),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--save-model"), "{err}");
        let err = run("serve", &args("--listen 127.0.0.1:0")).unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");
        // --centers and --server are mutually exclusive.
        let err = run(
            "predict",
            &args(&format!(
                "--input {csv} --centers {csv} --server 127.0.0.1:9 --out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("--centers does not combine"),
            "{err}"
        );
        // A dead server address is a typed connection error, not a hang.
        let err = run(
            "predict",
            &args(&format!("--input {csv} --server 127.0.0.1:9 --out /tmp/x")),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Cluster(_)), "{err}");
        // --queue-cap 0 is a usage error, not a wedged server.
        let err = run(
            "serve",
            &args("--listen 127.0.0.1:0 --model /tmp/nope.skmm --queue-cap 0"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--queue-cap"), "{err}");
        // drain is per-process: no replica lists, and --server is required.
        let err = run("drain", &args("--server a:1,b:2")).unwrap_err();
        assert!(err.to_string().contains("exactly one server"), "{err}");
        let err = run("drain", &args("")).unwrap_err();
        assert!(err.to_string().contains("--server"), "{err}");
    }

    #[test]
    fn rolling_drain_across_replicas_keeps_served_answers_identical() {
        let data = tmp("roll.csv");
        let model = tmp("roll_model.skmm");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 3 --n 120 --variance 80 --seed 13 --out {data} --no-labels"
            )),
        )
        .unwrap();
        run(
            "fit",
            &args(&format!(
                "--input {data} --k 3 --seed 6 --centers-out /dev/null --save-model {model}"
            )),
        )
        .unwrap();
        let local = tmp("roll_local.txt");
        run(
            "predict",
            &args(&format!("--input {data} --centers {model} --out {local}")),
        )
        .unwrap();
        let expected = std::fs::read_to_string(&local).unwrap();

        // Two replicas of the same model.
        let io = Some(std::time::Duration::from_secs(30));
        let record = load_model_file(&model).unwrap();
        let spawn = || {
            let engine = ServeEngine::new(
                record.clone(),
                kmeans_par::Executor::new(Parallelism::Sequential),
            )
            .unwrap();
            kmeans_serve::spawn_tcp_serve(engine, io).unwrap()
        };
        let (addr1, handle1) = spawn();
        let (addr2, handle2) = spawn();
        let replicas = format!("{addr1},{addr2}");

        // Chunked served predict against the replica set (with a deadline
        // budget attached) matches the local labels byte-for-byte.
        let served = tmp("roll_served.txt");
        run(
            "predict",
            &args(&format!(
                "--input {data} --server {replicas} --out {served} \
                 --chunk-points 7 --deadline-ms 60000"
            )),
        )
        .unwrap();
        assert_eq!(std::fs::read_to_string(&served).unwrap(), expected);

        // Roll replica 1 out: drain it, wait for its process to exit.
        let out = run("drain", &args(&format!("--server {addr1}"))).unwrap();
        assert!(out.contains("draining"), "{out}");
        handle1.join().unwrap().unwrap();

        // The replica list still serves identical answers — the client
        // fails over to replica 2 without a user-visible error.
        let failed_over = tmp("roll_failover.txt");
        run(
            "predict",
            &args(&format!(
                "--input {data} --server {replicas} --out {failed_over}"
            )),
        )
        .unwrap();
        assert_eq!(std::fs::read_to_string(&failed_over).unwrap(), expected);

        ServeClient::connect(&addr2.to_string(), io)
            .unwrap()
            .shutdown()
            .unwrap();
        handle2.join().unwrap().unwrap();
    }

    #[test]
    fn distributed_flags_are_validated() {
        let data = tmp("dist_flags.csv");
        std::fs::write(&data, "1.0,2.0\n3.0,4.0\n5.0,6.0\n").unwrap();
        // Distributed-only flags without --distributed are rejected.
        for flags in [
            "--workers 127.0.0.1:1",
            "--io-timeout 5",
            "--manifest /tmp/m",
        ] {
            let err = run(
                "fit",
                &args(&format!(
                    "--input {data} --k 2 {flags} --centers-out /tmp/x"
                )),
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("only applies to distributed"),
                "{flags}: {err}"
            );
        }
        // --distributed needs --workers.
        let err = run("fit", &args("--k 2 --distributed --centers-out /tmp/x")).unwrap_err();
        assert!(err.to_string().contains("--workers"), "{err}");
        // --input does not combine with --distributed (workers own the data).
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --distributed --workers 127.0.0.1:1 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--input does not apply"), "{err}");
        // Neither do --chunked or --labels.
        let err = run(
            "fit",
            &args("--k 2 --distributed --chunked --workers 127.0.0.1:1 --centers-out /tmp/x"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let err = run(
            "fit",
            &args("--k 2 --distributed --labels --workers 127.0.0.1:1 --centers-out /tmp/x"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--labels does not apply"), "{err}");
        // A dead address is a typed connection error, not a hang.
        let err = run(
            "fit",
            &args("--k 2 --distributed --workers 127.0.0.1:9 --centers-out /tmp/x"),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Cluster(_)), "{err}");
        // Bad --shard-size is a usage error.
        let err = run(
            "fit",
            &args(&format!(
                "--input {data} --k 2 --shard-size 0 --centers-out /tmp/x"
            )),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--shard-size"), "{err}");
    }

    #[test]
    fn shard_and_worker_validate_their_inputs() {
        let csv = tmp("notblocks.csv");
        std::fs::write(&csv, "1.0,2.0\n3.0,4.0\n").unwrap();
        let err = run(
            "shard",
            &args(&format!("--input {csv} --workers 2 --out-prefix /tmp/s")),
        )
        .unwrap_err();
        assert!(err.to_string().contains("skm convert"), "{err}");
        let err = run(
            "shard",
            &args(&format!("--input {csv} --out-prefix /tmp/s")),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--workers"), "{err}");
        let err = run(
            "worker",
            &args(&format!("--listen 127.0.0.1:0 --data {csv}")),
        )
        .unwrap_err();
        assert!(err.to_string().contains("skm convert"), "{err}");
    }

    #[test]
    fn distributed_fit_matches_local_fit_end_to_end() {
        use kmeans_data::BlockFileSource;
        use kmeans_par::Parallelism;

        // generate → convert → shard → 2 TCP workers → fit --distributed,
        // compared file-byte-identical against the local fit.
        let data = tmp("dist.csv");
        run(
            "generate",
            &args(&format!(
                "--dataset gauss --k 4 --n 192 --variance 50 --seed 9 --out {data} --no-labels"
            )),
        )
        .unwrap();
        let blocks = tmp("dist.skmb");
        run(
            "convert",
            &args(&format!("--input {data} --out {blocks} --block-rows 32")),
        )
        .unwrap();
        let prefix = tmp("dist_shard");
        let out = run(
            "shard",
            &args(&format!(
                "--input {blocks} --workers 2 --align 96 --out-prefix {prefix}"
            )),
        )
        .unwrap();
        assert!(out.contains("2 shards"), "{out}");

        let manifest = kmeans_data::ShardManifest::load(format!("{prefix}.manifest")).unwrap();
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for entry in &manifest.shards {
            let source = BlockFileSource::open(&entry.path, 1 << 20).unwrap();
            let (addr, handle) = kmeans_cluster::spawn_tcp_worker(
                source,
                Parallelism::Threads(2),
                Some(std::time::Duration::from_secs(30)),
            )
            .unwrap();
            addrs.push(addr.to_string());
            handles.push(handle);
        }

        let local_centers = tmp("dist_local.csv");
        run(
            "fit",
            &args(&format!(
                "--input {data} --k 4 --seed 3 --shard-size 96 --centers-out {local_centers}"
            )),
        )
        .unwrap();
        let dist_centers = tmp("dist_remote.csv");
        let dist_trace = tmp("dist_trace.json");
        let out = run(
            "fit",
            &args(&format!(
                "--distributed --workers {} --manifest {prefix}.manifest --k 4 --seed 3 \
                 --shard-size 96 --centers-out {dist_centers} --trace {dist_trace}",
                addrs.join(",")
            )),
        )
        .unwrap();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert!(out.contains("distributed: 2 workers"), "{out}");
        assert!(out.contains("worker 0: rows [0..96)"), "{out}");
        assert!(out.contains("B on the wire"), "{out}");
        assert!(out.contains("trace -> "), "{out}");
        // Shortest-round-trip CSV formatting: bit-identical centers are
        // file-identical (the flight recorder never touches results).
        assert_eq!(
            std::fs::read_to_string(&dist_centers).unwrap(),
            std::fs::read_to_string(&local_centers).unwrap()
        );
        // The distributed trace carries all three tiers: round spans with
        // wire-byte deltas, pipeline stages, coordinator broadcasts.
        let events =
            kmeans_obs::parse_chrome_trace(&std::fs::read_to_string(&dist_trace).unwrap()).unwrap();
        assert!(events.iter().any(|e| e.cat == "round"
            && e.name == "assign"
            && e.args
                .iter()
                .any(|(n, v)| n == "wire_bytes"
                    && matches!(v, kmeans_obs::ArgValue::U64(b) if *b > 0))));
        assert!(events
            .iter()
            .any(|e| e.cat == "cluster" && e.name.starts_with("broadcast:")));
        assert!(events
            .iter()
            .any(|e| e.cat == "fit" && e.name == "stage:refine"));
    }

    #[test]
    fn help_and_errors() {
        let out = run("help", &args("")).unwrap();
        assert!(out.contains("USAGE"));
        assert!(matches!(
            run("frobnicate", &args("")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run("fit", &args("--k 3 --centers-out /tmp/x")),
            Err(CliError::Usage(_)) // missing --input
        ));
        assert!(matches!(
            run("generate", &args("--dataset nope --out /tmp/x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(
                "fit",
                &args("--input /nonexistent.csv --k 2 --centers-out /tmp/x")
            ),
            Err(CliError::Data(_))
        ));
        // Error messages are user-readable.
        let e = run("fit", &args("--input /tmp/missing --centers-out x")).unwrap_err();
        assert!(e.to_string().contains("--k"));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let data = tmp("mm_data.csv");
        let centers = tmp("mm_centers.csv");
        std::fs::write(&data, "1.0,2.0\n3.0,4.0\n").unwrap();
        std::fs::write(&centers, "1.0,2.0,3.0\n").unwrap();
        let err = run(
            "evaluate",
            &args(&format!("--input {data} --centers {centers}")),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::KMeans(_)), "{err}");
        let err = run(
            "predict",
            &args(&format!("--input {data} --centers {centers} --out /tmp/p")),
        )
        .unwrap_err();
        assert!(err.to_string().contains("dimension mismatch"));
    }
}
