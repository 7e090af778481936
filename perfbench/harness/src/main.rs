//! In-process side of the perfbench benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-harness ref-json    <in.fdr> <out>
//! perfbench-harness ref-mutate  <in.fdr> <trace.json> <out>
//! perfbench-harness trace-json   <in.fdr> <seconds> <out.json> <sink>
//! perfbench-harness trace-mutate <in.fdr> <trace.json> <seconds> <out.json>
//! perfbench-harness trace-write  <table.json> <fds> <seconds> <out.json>
//! ```
//!
//! The `ref-*` commands compute the reference outputs the benchmark
//! checks the `fdrepair` binary against. The `trace-*` commands replay
//! the public calls an entry point makes, in the same order, timing each
//! call from outside and reading the span totals the program already
//! records through an installed [`fd_trace::Collector`]. They repeat the
//! sequence for at least `<seconds>` and write the median of every
//! figure as one flat JSON object. Nothing here adds a span to the
//! program.

use fd_repairs::core::Mutation;
use fd_repairs::engine::{parse_table_doc, table_fingerprint};
use fd_repairs::instance::Instance;
use fd_repairs::prelude::{
    parse_mutation_trace, IncrementalSession, JsonLimits, MixedCosts, MutateCall, Notion, Planner,
    RepairEngine, RepairRequest, ReportBody, ServeConfig, Timings, WireMutation,
};
use fd_repairs::serve::TableStore;
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

type Fail = Box<dyn std::error::Error>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.as_slice() {
        ["ref-json", fdr, out] => ref_json(fdr, out),
        ["ref-mutate", fdr, trace, out] => ref_mutate(fdr, trace, out),
        ["trace-json", fdr, secs, out, sink] => {
            seconds(secs).and_then(|s| trace_json(fdr, s, out, sink))
        }
        ["trace-mutate", fdr, trace, secs, out] => {
            seconds(secs).and_then(|s| trace_mutate(fdr, trace, s, out))
        }
        ["trace-write", table, fds, secs, out] => {
            seconds(secs).and_then(|s| trace_write(table, fds, s, out))
        }
        _ => {
            eprintln!("usage: see the module docs of perfbench/harness/src/main.rs");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

fn seconds(text: &str) -> Result<Duration, Fail> {
    Ok(Duration::from_secs_f64(text.parse::<f64>()?))
}

/// The request `fdrepair repair` and `fdrepair mutate` build when given
/// no solver flags.
fn cli_request() -> RepairRequest {
    RepairRequest::new(Notion::Subset).mixed_costs(MixedCosts::new(1.0, 1.0))
}

fn load(path: &str) -> Result<Instance, Fail> {
    Ok(Instance::parse(&std::fs::read_to_string(path)?)?)
}

fn load_trace(path: &str) -> Result<Vec<WireMutation>, Fail> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_mutation_trace(&text, &JsonLimits::UNTRUSTED)?)
}

/// Runs `f` and returns its result with the elapsed milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// `stdout` of `fdrepair repair --json --no-timings`, computed in
/// process and checked with [`RepairReport::validate_against`].
fn ref_json(fdr: &str, out: &str) -> Result<(), Fail> {
    let inst = load(fdr)?;
    let request = cli_request();
    let mut report = Planner.run(&inst.table, &inst.fds, &request)?;
    report.timings = Timings::default();
    report.validate_against(&inst.table, &inst.fds, &request)?;
    std::fs::write(out, format!("{}\n", report.to_json()))?;
    Ok(())
}

/// The deleted tuple ids (one line, space-separated) and the row count
/// of a validated cold solve of the table with the trace applied through
/// `Table::apply_mutation`.
fn ref_mutate(fdr: &str, trace: &str, out: &str) -> Result<(), Fail> {
    let mut inst = load(fdr)?;
    for wire in load_trace(trace)? {
        inst.table.apply_mutation(&wire.resolve(&inst.schema)?)?;
    }
    let request = cli_request();
    let report = Planner.run(&inst.table, &inst.fds, &request)?;
    report.validate_against(&inst.table, &inst.fds, &request)?;
    let ReportBody::Subset { deleted, .. } = &report.body else {
        return Err("a subset request returned another notion".into());
    };
    let ids: Vec<String> = deleted.iter().map(|id| id.0.to_string()).collect();
    std::fs::write(out, format!("{}\n{}\n", ids.join(" "), inst.table.len()))?;
    Ok(())
}

/// Per-iteration samples of every figure; the output is their medians.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Adds, for each `(span, metric)` pair, the total duration in ms
    /// (`<metric>_ms`) and the count (`<metric>.count`) of the spans of
    /// that name `collector` recorded.
    fn add_spans(&mut self, collector: &fd_trace::Collector, spans: &[(&str, &str)]) {
        let events = collector.events();
        for (span, metric) in spans {
            let durs: Vec<u64> = events
                .iter()
                .filter(|e| e.name == *span)
                .map(|e| e.dur_us)
                .collect();
            self.add(
                &format!("{metric}_ms"),
                durs.iter().sum::<u64>() as f64 / 1e3,
            );
            self.add(&format!("{metric}.count"), durs.len() as f64);
        }
    }

    fn write(self, out: &str, iterations: usize) -> Result<(), Fail> {
        let mut fields = vec![format!("\"iterations\": {iterations}")];
        for (name, mut values) in self.0 {
            values.sort_by(f64::total_cmp);
            fields.push(format!("\"{name}\": {}", values[values.len() / 2]));
        }
        std::fs::write(out, format!("{{{}}}\n", fields.join(", ")))?;
        Ok(())
    }
}

/// Repeats `body` until `budget` has passed, at least three times.
fn repeat(budget: Duration, mut body: impl FnMut() -> Result<(), Fail>) -> Result<usize, Fail> {
    let start = Instant::now();
    let mut iterations = 0;
    while iterations < 3 || start.elapsed() < budget {
        body()?;
        iterations += 1;
    }
    Ok(iterations)
}

/// Replays `fdrepair repair --json --no-timings <fdr> > <sink>`: read,
/// parse, solve, assemble, serialize, write. Every iteration overwrites
/// the sink from its start, as a fresh `> <sink>` would.
fn trace_json(fdr: &str, budget: Duration, out: &str, sink: &str) -> Result<(), Fail> {
    let mut samples = Samples::default();
    let request = cli_request();
    let mut sink = std::fs::File::create(sink)?;
    let iterations = repeat(budget, || {
        let collector = fd_trace::Collector::default();
        let wall = Instant::now();
        let guard = collector.install();
        let (text, read_ms) = timed(|| std::fs::read_to_string(fdr));
        let (inst, parse_ms) = timed(|| Instance::parse(&text?).map_err(Fail::from));
        let inst = inst?;
        let (report, run_ms) = timed(|| Planner.run(&inst.table, &inst.fds, &request));
        let mut report = report?;
        report.timings = Timings::default();
        let (doc, assemble_ms) = timed(|| report.to_json_value());
        let (bytes, serialize_ms) = timed(|| doc.to_string());
        let (written, write_ms) = timed(|| {
            sink.seek(SeekFrom::Start(0))?;
            writeln!(sink, "{bytes}")
        });
        written?;
        drop(guard);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        if collector.dropped() > 0 {
            return Err("the trace ring overflowed; span totals would be short".into());
        }
        samples.add("cli.read_ms", read_ms);
        samples.add("core.parse_ms", parse_ms);
        samples.add("engine.run_ms", run_ms);
        samples.add("engine.report_assemble_ms", assemble_ms);
        samples.add("engine.serialize_ms", serialize_ms);
        samples.add("engine.report_bytes", bytes.len() as f64 + 1.0);
        samples.add("cli.write_ms", write_ms);
        samples.add("traced_wall_ms", wall_ms);
        samples.add_spans(
            &collector,
            &[
                ("core/conflict_scan", "core.conflict_scan"),
                ("graph/components", "graph.components"),
                ("srepair/component", "srepair.component"),
            ],
        );
        Ok(())
    })?;
    samples.write(out, iterations)
}

/// Replays `fdrepair mutate --no-timings <fdr> --mutations <trace>` up
/// to its text rendering, which is private to the binary.
fn trace_mutate(fdr: &str, trace: &str, budget: Duration, out: &str) -> Result<(), Fail> {
    let mut samples = Samples::default();
    let request = cli_request();
    let iterations = repeat(budget, || {
        let collector = fd_trace::Collector::default();
        let wall = Instant::now();
        let guard = collector.install();
        let (text, read_ms) = timed(|| std::fs::read_to_string(fdr));
        let (inst, parse_ms) = timed(|| Instance::parse(&text?).map_err(Fail::from));
        let inst = inst?;
        let (wires, trace_parse_ms) = timed(|| {
            let text = std::fs::read_to_string(trace)?;
            Ok::<_, Fail>(parse_mutation_trace(&text, &JsonLimits::UNTRUSTED)?)
        });
        let wires = wires?;
        let (table, clone_ms) = timed(|| inst.table.clone());
        let (session, open_ms) =
            timed(|| IncrementalSession::new(table, inst.fds.clone(), request));
        let mut session = session?;
        if !session.is_incremental() {
            return Err("the CLI request no longer reaches the delta engine".into());
        }
        let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut apply_ms = 0.0;
        for wire in &wires {
            let mutation = wire.resolve(&inst.schema)?;
            let kind = match mutation {
                Mutation::Insert { .. } => "insert",
                Mutation::Delete { .. } => "delete",
                Mutation::SetCell { .. } => "set",
            };
            let (applied, ms) = timed(|| session.apply(&mutation));
            applied?;
            apply_ms += ms;
            per_kind.entry(kind).or_default().push(ms * 1e3);
        }
        let (report, report_ms) = timed(|| session.report());
        report?;
        drop(guard);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        if collector.dropped() > 0 {
            return Err("the trace ring overflowed; span totals would be short".into());
        }
        samples.add("cli.read_ms", read_ms);
        samples.add("core.parse_ms", parse_ms);
        samples.add("engine.trace_parse_ms", trace_parse_ms);
        samples.add("core.table_clone_ms", clone_ms);
        samples.add("engine.session_open_ms", open_ms);
        samples.add("engine.apply_ms", apply_ms);
        for (kind, mut us) in per_kind {
            us.sort_by(f64::total_cmp);
            samples.add(&format!("engine.apply_{kind}_us"), us[us.len() / 2]);
        }
        samples.add("engine.session_report_ms", report_ms);
        samples.add("traced_wall_ms", wall_ms);
        let steps: Vec<fd_trace::Event> = collector
            .events()
            .into_iter()
            .filter(|e| e.name == "srepair/incremental_step")
            .collect();
        for attr in ["region_rows", "dirty_components"] {
            let total: u64 = steps
                .iter()
                .flat_map(|e| &e.args)
                .filter(|(key, _)| *key == attr)
                .map(|(_, value)| match value {
                    fd_trace::AttrValue::U64(v) => *v,
                    _ => 0,
                })
                .sum();
            samples.add(
                &format!("srepair.{attr}_per_step"),
                total as f64 / steps.len().max(1) as f64,
            );
        }
        Ok(())
    })?;
    samples.write(out, iterations)
}

/// Replays the public calls `POST /tables/{id}/mutate` makes for a
/// one-step `set` trace, against a [`TableStore`] holding the table the
/// live workload uploads, under the server's default time cap.
fn trace_write(table_json: &str, fds: &str, budget: Duration, out: &str) -> Result<(), Fail> {
    let config = ServeConfig::default();
    let limits = JsonLimits {
        max_bytes: config.max_body_bytes,
        max_depth: JsonLimits::DEFAULT_MAX_DEPTH,
    };
    let table = parse_table_doc(&std::fs::read_to_string(table_json)?, &limits)?;
    let rows = table.len();
    let store = TableStore::new(config.max_tables_per_tenant, config.max_rows_per_tenant);
    let fingerprint = table_fingerprint(&table);
    store
        .put("bench", "t", table, fingerprint)
        .map_err(|e| format!("store put failed: {e:?}"))?;
    let mut samples = Samples::default();
    let mut step = 0usize;
    let iterations = repeat(budget, || {
        // A cell no earlier write touched, set to a value it never held.
        let body = format!(
            "{{\"fds\":\"{fds}\",\"request\":{{\"include_timings\":false}},\
             \"mutations\":[{{\"op\":\"set\",\"id\":{},\"attr\":\"B\",\"value\":{}}}]}}",
            (step * 7919) % rows,
            3_000_000 + step
        );
        step += 1;
        let wall = Instant::now();
        let (call, parse_ms) = timed(|| MutateCall::parse(&body, &limits));
        let mut call = call?;
        let stored = store.get("bench", "t").ok_or("the stored table vanished")?;
        let schema = std::sync::Arc::clone(stored.table.schema());
        let fds = call.resolve_fds(&schema)?;
        if let Some(cap) = config.default_time_cap_ms {
            let capped = call.request.budgets.time_cap_ms.map_or(cap, |c| c.min(cap));
            call.request = call.request.time_cap_ms(capped);
        }
        let (clone, clone_in_ms) = timed(|| stored.table.clone());
        let (session, open_ms) = timed(|| IncrementalSession::new(clone, fds, call.request));
        let mut session = session?;
        for wire in &call.mutations {
            session.apply(&wire.resolve(&schema)?)?;
        }
        let (report, report_ms) = timed(|| session.report());
        let report = report?;
        let (table, clone_out_ms) = timed(|| session.table().clone());
        let (fingerprint, fingerprint_ms) = timed(|| table_fingerprint(&table));
        let (replaced, replace_ms) = timed(|| store.replace("bench", "t", table, fingerprint));
        replaced.map_err(|e| format!("store replace failed: {e:?}"))?;
        let (bytes, serialize_ms) = timed(|| report.to_json());
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(bytes);
        samples.add("engine.wire_parse_us", parse_ms * 1e3);
        samples.add("core.table_clone_ms", clone_in_ms + clone_out_ms);
        samples.add("engine.session_open_ms", open_ms);
        samples.add("engine.session_report_ms", report_ms);
        samples.add("engine.fingerprint_ms", fingerprint_ms);
        samples.add("serve.store_replace_us", replace_ms * 1e3);
        samples.add("engine.serialize_ms", serialize_ms);
        samples.add("traced_wall_ms", wall_ms);
        Ok(())
    })?;
    samples.write(out, iterations)
}
