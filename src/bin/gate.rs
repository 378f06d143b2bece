//! `gate`: the repository's full local gate, run as
//! `cargo run --release --bin gate`. It runs [`CARGO`] and then [`STEPS`]
//! in order, prints each one's wall time, and exits 1 at the first failure.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::str::FromStr;
use std::time::Instant;

type Check = Result<(), String>;
type Step = (&'static str, fn(&str, &Path) -> Check);

/// The cargo commands the gate runs first, their output passed through.
/// fmbench is a package of its own, gated read-only through its manifest.
const CARGO: [&str; 7] = [
    "fmt --all -- --check",
    "clippy --workspace --all-targets -- -D warnings",
    "build -q --workspace --all-targets",
    "test -q --workspace",
    "fmt --manifest-path fmbench/Cargo.toml -- --check",
    "clippy --manifest-path fmbench/Cargo.toml --all-targets -- -D warnings",
    "test -q --manifest-path fmbench/Cargo.toml",
];

/// The steps after [`CARGO`]: a title, and the check that runs it, given
/// the title and a scratch directory. A bench title is its command line.
const STEPS: &[Step] = &[
    // The adapter surface and every workload's integrity/audit self-check.
    ("fmbench smoke", |_, tmp| {
        let mut run = Command::new("fmbench/run.sh");
        output(run.args(["--smoke", "--out"]).arg(tmp.join("fmbench.json"))).map(drop)
    }),
    ("telemetry smoke", |_, tmp| {
        let trace = tmp.join("trace.json");
        let args = "run -q --bin fluidmemctl -- trace --scenario pmbench --out";
        output(Command::new("cargo").args(args.split(' ')).arg(&trace))?;
        let flight = |s| read(&trace).map(|t| t.contains(&format!("\"kv.{s}.flight\"")));
        check(flight("read")? && flight("write")?, "no kv.*.flight span")
    }),
    // The sweep's records, then the policy faceoff's.
    ("scaling --smoke", |line, tmp| {
        records(&smoke(tmp, line, "scaling_policy")?, "scaling").map(drop)
    }),
    // The slo_guarded progress floor holds. Per-VM resources are constant
    // across fleet sizes, so a per-VM rate that halves is superlinear cost.
    ("scaling --big --smoke", |line, tmp| {
        let json = smoke(tmp, line, "scaling_big")?;
        zero(&json, "scaling_big", "floor_misses")?;
        let rate = |n| field_at(&json, "scaling_big", "n_vms", n, "throughput_per_vm_ops_s");
        let (small, big) = (rate(16)?, rate(64)?);
        let why = format!("per-VM rate {big} at N=64 < half of {small} at N=16");
        check(big >= 0.5 * small, why)
    }),
    ("lints", |_, _| lints(LINTS)),
    // Every cell churns membership mid-run; the shadow audit must find
    // no lost or duplicated page.
    ("scaling --cluster --smoke", |line, tmp| {
        let json = smoke(tmp, line, "scaling_cluster")?;
        zero(&json, "scaling_cluster", "lost_pages duplicated_pages")
    }),
    // The background evictor absorbs every eviction and wins the p99 tail
    // at depth >= 4; fault latency must not scale with the depth bound.
    ("pipeline --smoke", |line, tmp| {
        let json = smoke(tmp, line, "pipeline_reclaim")?;
        zero(&json, "pipeline_reclaim", "direct_reclaims")?;
        for r in records(&json, "pipeline_reclaim")? {
            let won = field::<u64>(r, "depth")? < 4 || field(r, "tail_win")?;
            check(won, format!("reclaim lost the tail: {r}"))?;
        }
        let p99 = |d| field_at(&json, "pipeline", "depth", d, "fault_p99_us");
        let (shallow, deep) = (p99(2)?, p99(16)?);
        let why = format!("fault p99 {deep} us at depth 16 > 2 x {shallow} at depth 2");
        check(deep <= 2.0 * shallow, why)
    }),
    ("workingset --smoke", |line, tmp| {
        smoke(tmp, line, "workingset").map(drop)
    }),
    // Each cell audits every tracked page into exactly one place.
    ("tiering --smoke", |line, tmp| {
        let json = smoke(tmp, line, "tiering")?;
        zero(&json, "tiering", "lost_pages duplicated_pages")
    }),
    // The one harness that drives CompressedStore's frames and ZramDevice
    // end to end; ablation 6 counts the pages that did not round-trip.
    ("ablations", |line, _| {
        let out = output(&mut bench(line))?;
        same("stdout", &out, &output(&mut bench(line))?)?;
        let text = String::from_utf8_lossy(&out);
        let framing = |l: &str| l.starts_with("adversarial framing check: ");
        let clean = |l: &str| framing(l) && l.ends_with("(0 mismatches)");
        check(text.lines().any(clean), "ablation 6 not at 0 mismatches")
    }),
    // Speculation never panics the monitor on a store error, and the
    // trend prefetcher covers at least half the strided phase.
    ("prefetch --smoke", |line, tmp| {
        let json = smoke(tmp, line, "prefetch_gate")?;
        zero(&json, "prefetch_gate", "fatal_errors")?;
        for r in records(&json, "prefetch_gate")? {
            let hit = field::<f64>(r, "strided_hit_rate")?;
            check(hit >= 0.5, format!("strided hit rate {hit} < 0.5"))?;
        }
        Ok(())
    }),
    // The reproduction's record: a change that moves it regenerates it and
    // EXPERIMENTS.md "Experiments — paper vs. measured", or it is a regression.
    ("paper-shape outputs", |_, tmp| {
        let json = tmp.join("BENCH_scaling.json");
        std::thread::scope(|s| {
            let big = s.spawn(|| output(bench("scaling --big --json").arg(&json)));
            let bins = "table1 table2 table3 fig2 fig3 fig4 fig5 timeouts ablations prefetch";
            for bin in bins.split(' ') {
                let ok = output(&mut bench(bin))? == read(format!("results/{bin}.txt"))?.as_bytes();
                check(ok, format!("{bin} != results/{bin}.txt"))?;
            }
            big.join().expect("scaling --big panicked")?;
            let same = read(&json)? == read("BENCH_scaling.json")?;
            check(same, "scaling --big != BENCH_scaling.json")
        })
    }),
];

fn main() -> ExitCode {
    let tmp = std::env::temp_dir().join(format!("fluidmem-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let start = Instant::now();
    let setup = std::fs::create_dir_all(&tmp).map_err(|e| format!("setup: {e}"));
    let verdict = setup.and_then(|()| {
        check(Path::new(file!()).exists(), "no src/bin/gate.rs here")?;
        for args in CARGO {
            let mut cargo = Command::new("cargo");
            let cargo = cargo.args(args.split(' ')).stdout(Stdio::inherit());
            timed(&format!("cargo {args}"), || output(cargo).map(drop))?;
        }
        let mut steps = STEPS.iter();
        steps.try_for_each(|(title, run)| timed(title, || run(title, &tmp)))
    });
    let _ = std::fs::remove_dir_all(&tmp);
    let total = start.elapsed().as_secs_f64();
    if let Err(e) = verdict {
        eprintln!("gate failed after {total:.1} s: {e}");
        return ExitCode::FAILURE;
    }
    println!("==> all checks passed ({total:.1} s)");
    ExitCode::SUCCESS
}

/// Runs `step` under `title` and prints its wall time.
fn timed(title: &str, step: impl FnOnce() -> Check) -> Check {
    println!("==> {title}");
    let t = Instant::now();
    let result = step();
    println!("    ({:.1} s)", t.elapsed().as_secs_f64());
    result.map_err(|e| format!("{title}: {e}"))
}

fn check(ok: bool, why: impl Into<String>) -> Check {
    ok.then_some(()).ok_or_else(|| why.into())
}

/// Runs `cmd` with stderr passed through; returns its stdout, or fails with it.
fn output(cmd: &mut Command) -> Result<Vec<u8>, String> {
    let out = cmd.stderr(Stdio::inherit()).output();
    let out = out.map_err(|e| format!("{cmd:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let why = format!("{cmd:?} failed ({}):\n{stdout}", out.status);
    check(out.status.success(), why)?;
    Ok(out.stdout)
}

/// `cargo run` of a fluidmem-bench bin (release); `line` is the bin and
/// its flags.
fn bench(line: &str) -> Command {
    let mut words = line.split(' ');
    let mut cmd = Command::new("cargo");
    cmd.args(["run", "-q", "--release", "-p", "fluidmem-bench", "--bin"]);
    cmd.args(words.next()).arg("--").args(words);
    cmd
}

fn same(what: &str, a: &[u8], b: &[u8]) -> Check {
    check(a == b, format!("{what} differs between two runs"))
}

fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `line` (see [`bench`]) twice. Fails unless both runs' stdout and
/// `--json` records are byte-identical and hold `record` records;
/// returns the JSON.
fn smoke(tmp: &Path, line: &str, record: &str) -> Result<String, String> {
    let run = |name: &str| {
        let path = tmp.join(format!("{record}-{name}.json"));
        let stdout = output(bench(line).arg("--json").arg(&path))?;
        Ok::<_, String>((stdout, read(&path)?))
    };
    let ((out, json), (out_b, json_b)) = (run("a")?, run("b")?);
    same("stdout", &out, &out_b)?;
    same("JSON", json.as_bytes(), json_b.as_bytes())?;
    records(&json, record)?;
    Ok(json)
}

/// The JSON-lines records of bench `bench`; none at all is an error.
fn records<'a>(json: &'a str, bench: &str) -> Result<Vec<&'a str>, String> {
    let tag = format!("\"bench\":\"{bench}\"");
    let found: Vec<&str> = json.lines().filter(|l| l.contains(&tag)).collect();
    check(!found.is_empty(), format!("no {bench} records"))?;
    Ok(found)
}

/// Field `name` of a flat JSON record, parsed as `T`. A missing or
/// malformed field is an error, never a pass.
fn field<T: FromStr>(record: &str, name: &str) -> Result<T, String> {
    let after = record
        .split_once(&format!("\"{name}\":"))
        .map_or("", |(_, v)| v);
    let value = after.split([',', '}']).next().and_then(|v| v.parse().ok());
    value.ok_or_else(|| format!("no {} {name} in {record}", std::any::type_name::<T>()))
}

/// Field `name` of the first `bench` record whose `key` is `value`.
fn field_at(json: &str, bench: &str, key: &str, value: u64, name: &str) -> Result<f64, String> {
    for r in records(json, bench)? {
        if field::<u64>(r, key)? == value {
            return field(r, name);
        }
    }
    Err(format!("no {bench} record with {key} = {value}"))
}

/// Fails unless each of the space-separated `names` is present and 0 in
/// every `bench` record.
fn zero(json: &str, bench: &str, names: &str) -> Check {
    for r in records(json, bench)? {
        for name in names.split(' ') {
            let v = field::<u64>(r, name)?;
            check(v == 0, format!("{name} = {v} in {r}"))?;
        }
    }
    Ok(())
}

/// What a lint does not read: `//` comments, and test code (the body of
/// a `#[cfg(test)] mod x { … }`, and every file named `tests.rs`).
#[derive(Clone, Copy)]
enum Exempt {
    Nothing,
    CommentsAndTests,
    /// Comments, and test code in files under this directory only.
    CommentsAndTestsIn(&'static str),
}

/// A source rule: each line of the files and directories of `roots`
/// (space-separated; `!` marks a path left out) that `hit` matches breaks
/// it, unless the line carries `marker` or `exempt` covers it. `fix` says
/// why the rule holds and what to do about a hit ("mark" it: `// marker`).
struct Lint {
    name: &'static str,
    roots: &'static str,
    marker: Option<&'static str>,
    exempt: Exempt,
    hit: fn(&str) -> bool,
    fix: &'static str,
}

#[rustfmt::skip] // one row per lint, laid out by hand as a table
const LINTS: &[Lint] = &[
    Lint { name: "unordered-container iteration in output-producing crates",
        roots: "crates/bench/src crates/telemetry/src",
        marker: Some("lint: order-independent"), exempt: Exempt::Nothing,
        hit: |l| any(l, "HashMap|HashSet"),
        fix: "outputs are compared byte for byte: sort first, use a BTreeMap, or mark the use" },
    Lint { name: "default-hasher maps on the per-page paths",
        roots: "crates/mem/src crates/core/src crates/uffd/src crates/block/src crates/swap/src \
                crates/kv/src/ramcloud.rs crates/kv/src/memcached.rs crates/kv/src/dram.rs",
        marker: Some("lint: cold-path"), exempt: Exempt::CommentsAndTests,
        hit: |l| any(l, "HashMap|HashSet|FastMap<Vpn|FastSet<Vpn"),
        fix: "hashing cost host time (DESIGN.md \"Host cost\"): key pages by PageArray, else FastMap, or mark it" },
    Lint { name: "depth is a bound, not a mode",
        roots: "crates/core/src crates/host/src crates/vm/src",
        marker: Some("lint: depth-bound"), exempt: Exempt::CommentsAndTests,
        hit: |l| (l.contains("max_inflight") && compares(l)) || l.contains("fn handle_refault"),
        fix: "one fault engine: max_inflight only bounds parked faults; mark a genuine bound" },
    Lint { name: "the wire is charged in one place",
        roots: "crates/kv/src !crates/kv/src/transport.rs !crates/kv/src/leaf.rs",
        marker: Some("lint: own-timeline"), exempt: Exempt::Nothing,
        hit: |l| any(l, "sample_top_half|sample_flight|sample_batch_flight|sample_bottom_half"),
        fix: "the leaf front alone charges the wire: implement a StorageEngine, or mark a cursor" },
    Lint { name: "the monitor's threads are the one user of the clock's timelines",
        roots: "crates src tests examples !crates/core/src/monitor/pipeline.rs",
        marker: None, exempt: Exempt::CommentsAndTestsIn("crates/sim/src"),
        hit: |l| l.contains("on_timeline") && !l.contains("pub fn on_timeline"),
        fix: "a timeline the guest clock never sees: use the monitor's wrapper (DESIGN.md \"Fault engine\")" },
    Lint { name: "the clock has one writer",
        roots: "crates/sim/src/clock.rs",
        marker: None, exempt: Exempt::CommentsAndTests,
        hit: |l| any(l, "fetch_add|fetch_sub|fetch_update|compare_exchange|swap("),
        fix: "a world runs on one thread: use a relaxed load and store (DESIGN.md \"Host cost\")" },
    Lint { name: "no timeline is passed by hand",
        roots: "crates/core/src crates/uffd/src",
        marker: None, exempt: Exempt::CommentsAndTests,
        hit: |l| l.contains("Option<&mut SimInstant>"),
        fix: "a private cursor: add a Timeline and use Monitor::run_on" },
    Lint { name: "instruments are declared, not hand-registered",
        roots: "crates src !crates/telemetry/src",
        marker: None, exempt: Exempt::Nothing,
        hit: |l| any(l, "adopt_counter|adopt_gauge|adopt_histogram"),
        fix: "the catalogue knows only instruments of an instrument_set! list" },
    Lint { name: "pages are sized through their buffer",
        roots: "crates src examples !crates/kv/src/compress.rs",
        marker: Some("lint: raw-scan"), exempt: Exempt::CommentsAndTests,
        hit: |l| any(l, "scan_runs(|.stored_len(") || l.match_indices("rle_len(").any(|(i, _)| {
            !l[..i].ends_with(|c: char| c.is_ascii_lowercase() || c == '_')
        }),
        fix: "a PageBuf remembers its size (DESIGN.md \"Compressed tier\"): call stored_page_size, or mark it" },
    Lint { name: "durations are recorded as durations",
        roots: "crates src examples !crates/sim/src/stats.rs",
        marker: Some("lint: raw-sample"), exempt: Exempt::CommentsAndTests,
        hit: |l| l.match_indices(".record(").any(|(i, m)| {
            let first_arg = l[i + m.len()..].split(',').next().unwrap_or_default();
            first_arg.contains(".as_micros_f64())")
        }),
        fix: "a float moves a Sample to its 8-byte store (DESIGN.md \"Telemetry\"): call record_duration, or mark it" },
];

/// Whether `line` contains any of the `|`-separated `patterns`.
fn any(line: &str, patterns: &str) -> bool {
    patterns.split('|').any(|p| line.contains(p))
}

/// `==`, `!=`, `>=`, `<`, or a `>` that does not end `->` or `=>`.
fn compares(line: &str) -> bool {
    let gt = |(i, _): (usize, _)| i > 0 && !matches!(line.as_bytes()[i - 1], b'-' | b'=');
    any(line, "==|!=|>=|<") || line.match_indices('>').any(gt)
}

/// Runs every lint of `table`; fails naming each one that has hits.
fn lints(table: &[Lint]) -> Check {
    let mut broken = Vec::new();
    for lint in table {
        // The gate's own source names every pattern of the table.
        let paths = lint.roots.split(' ').chain(["!src/bin/gate.rs"]);
        let (skip, roots): (Vec<_>, Vec<_>) = paths.partition(|p| p.starts_with('!'));
        let mut hits = Vec::new();
        for root in roots {
            walk(Path::new(root), &skip, &mut |path, text| {
                hits.extend(scan(lint, path, text))
            })?;
        }
        if !hits.is_empty() {
            let hits = hits.join("\n  ");
            eprintln!("lint `{}` ({}):\n  {hits}", lint.name, lint.fix);
            broken.push(lint.name);
        }
    }
    check(broken.is_empty(), format!("broken: {}", broken.join("; ")))
}

/// Calls `visit` with each file at or under `path` and its text, in path
/// order, leaving out what lies under a `!path` of `skip`. A missing path is an error:
/// a misspelt root would check nothing.
fn walk(path: &Path, skip: &[&str], visit: &mut impl FnMut(&Path, &str)) -> Check {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if skip.iter().any(|s| path.starts_with(&s[1..])) {
        return Ok(());
    } else if !path.is_dir() {
        let bytes = std::fs::read(path).map_err(io)?;
        visit(path, &String::from_utf8_lossy(&bytes));
        return Ok(());
    }
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(path).map_err(io)? {
        entries.push(entry.map_err(io)?.path());
    }
    entries.sort();
    entries.iter().try_for_each(|e| walk(e, skip, visit))
}

/// The lines of `text`, the file at `path`, that break `lint`, as
/// `path:line: text`.
fn scan(lint: &Lint, path: &Path, text: &str) -> Vec<String> {
    let (comments, tests) = match lint.exempt {
        Exempt::Nothing => (false, false),
        Exempt::CommentsAndTests => (true, true),
        Exempt::CommentsAndTestsIn(dir) => (true, path.starts_with(dir)),
    };
    if tests && path.ends_with("tests.rs") {
        return Vec::new();
    }
    production_lines(text, tests)
        .into_iter()
        .filter(|(_, l)| !(comments && l.trim_start().starts_with("//")))
        .filter(|(_, l)| lint.marker.is_none_or(|m| !l.contains(m)) && (lint.hit)(l))
        .map(|(n, l)| format!("{}:{n}: {l}", path.display()))
        .collect()
}

/// The numbered lines of `text`, less, when `skip_tests`, the body of
/// every `#[cfg(test)] mod x { … }`: it ends at the `}` rustfmt puts at
/// the indentation of its `mod` line. This is the one place that decides
/// which source lines are test code.
fn production_lines(text: &str, skip_tests: bool) -> Vec<(usize, &str)> {
    let (mut lines, mut cfg_test, mut module_indent) = (Vec::new(), false, None);
    for (i, line) in text.lines().enumerate() {
        let code = line.trim_start();
        if let Some(indent) = module_indent {
            module_indent = module_indent.filter(|_| line.strip_prefix(indent) != Some("}"));
        } else if cfg_test && code.ends_with('{') && code.split_whitespace().any(|w| w == "mod") {
            module_indent = Some(&line[..line.len() - code.len()]);
        } else {
            cfg_test =
                skip_tests && (code == "#[cfg(test)]" || (cfg_test && code.starts_with("#[")));
            lines.push((i + 1, line));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> &'static Lint {
        LINTS
            .iter()
            .find(|l| l.name == name)
            .expect("a row of LINTS")
    }

    fn flagged(name: &str, path: &str, text: &str) -> bool {
        !scan(row(name), Path::new(path), text).is_empty()
    }

    /// One row's four cases on synthetic source at `path`: `hit` is
    /// flagged; with the row's escape marker it is not; as a `//` comment
    /// and inside a `#[cfg(test)] mod` it is flagged as the row says.
    fn four_cases(name: &str, path: &str, hit: &str, comment_flagged: bool, test_flagged: bool) {
        let case = |text: String| flagged(name, path, &text);
        assert!(
            case(format!("fn f() {{\n    {hit}\n}}\n")),
            "{name}: hit not flagged"
        );
        if let Some(marker) = row(name).marker {
            assert!(
                !case(format!("    {hit} // {marker}\n")),
                "{name}: marker ignored"
            );
        }
        assert_eq!(
            case(format!("    // {hit}\n")),
            comment_flagged,
            "{name}: comment"
        );
        let module =
            format!("#[cfg(test)]\nmod tests {{\n    fn t() {{\n        {hit}\n    }}\n}}\n");
        assert_eq!(case(module), test_flagged, "{name}: test module");
    }

    #[test]
    fn unordered_container_row() {
        let hit = "let m: HashMap<u64, u64> = HashMap::new();";
        four_cases(
            "unordered-container iteration in output-producing crates",
            "crates/bench/src/lib.rs",
            hit,
            true,
            true,
        );
    }

    #[test]
    fn default_hasher_row() {
        let hit = "let s: HashSet<u64> = HashSet::new();";
        four_cases(
            "default-hasher maps on the per-page paths",
            "crates/core/src/lru.rs",
            hit,
            false,
            false,
        );
        let name = "default-hasher maps on the per-page paths";
        assert!(
            !flagged(name, "crates/core/src/monitor/tests.rs", hit),
            "tests.rs is test code"
        );
        assert!(flagged(name, "crates/kv/src/memcached.rs", hit));
        for hit in ["index: FastMap<Vpn, u32>,", "let s: FastSet<Vpn> = x;"] {
            assert!(flagged(name, "crates/kv/src/dram.rs", hit), "{hit}");
        }
        let keyed = "m: FastMap<ExternalKey, u32>,";
        assert!(!flagged(name, "crates/core/src/tier.rs", keyed));
    }

    #[test]
    fn depth_row() {
        let name = "depth is a bound, not a mode";
        four_cases(
            name,
            "crates/host/src/agent.rs",
            "if config.max_inflight > 3 {",
            false,
            false,
        );
        assert!(flagged(
            name,
            "crates/vm/src/lib.rs",
            "fn handle_refault(&mut self) {"
        ));
        assert!(flagged(
            name,
            "crates/core/src/x.rs",
            "if d.max_inflight<2 {"
        ));
        assert!(!flagged(
            name,
            "crates/core/src/x.rs",
            "    max_inflight: usize,"
        ));
        assert!(!flagged(
            name,
            "crates/core/src/x.rs",
            "fn depth(&self) -> usize { self.max_inflight }"
        ));
        assert!(!flagged(
            name,
            "crates/core/src/x.rs",
            "Some(d) => d.max_inflight,"
        ));
    }

    #[test]
    fn wire_row() {
        let hit = "let t = self.transport.sample_flight(&mut rng);";
        four_cases(
            "the wire is charged in one place",
            "crates/kv/src/cluster.rs",
            hit,
            true,
            true,
        );
    }

    #[test]
    fn timeline_row() {
        let name = "the monitor's threads are the one user of the clock's timelines";
        let hit = "clock.on_timeline(&mut cursor, || work());";
        four_cases(name, "crates/host/src/agent.rs", hit, false, true);
        let sim_test = format!("#[cfg(test)]\nmod tests {{\n    {hit}\n}}\n");
        assert!(
            !flagged(name, "crates/sim/src/clock.rs", &sim_test),
            "sim's own tests may call it"
        );
        assert!(flagged(name, "crates/sim/src/clock.rs", hit));
        assert!(!flagged(
            name,
            "crates/sim/src/clock.rs",
            "    pub fn on_timeline<R>(&self) {"
        ));
    }

    #[test]
    fn clock_row() {
        let hit = "self.now.fetch_add(d, Ordering::Relaxed);";
        four_cases(
            "the clock has one writer",
            "crates/sim/src/clock.rs",
            hit,
            false,
            false,
        );
        assert!(flagged(
            "the clock has one writer",
            "crates/sim/src/clock.rs",
            "a.swap(1, o);"
        ));
    }

    #[test]
    fn cursor_row() {
        let hit = "fn copy(&mut self, at: Option<&mut SimInstant>) {";
        four_cases(
            "no timeline is passed by hand",
            "crates/uffd/src/lib.rs",
            hit,
            false,
            false,
        );
    }

    #[test]
    fn instrument_row() {
        let name = "instruments are declared, not hand-registered";
        four_cases(
            name,
            "src/testbed.rs",
            "registry.adopt_counter(\"x\", c);",
            true,
            true,
        );
        assert!(flagged(
            name,
            "crates/core/src/monitor/tests.rs",
            "r.adopt_gauge(g);"
        ));
    }

    #[test]
    fn raw_scan_row() {
        let name = "pages are sized through their buffer";
        four_cases(
            name,
            "crates/core/src/tier.rs",
            "let n = rle_len(&bytes);",
            false,
            false,
        );
        assert!(flagged(name, "src/lib.rs", "let n = page.stored_len();"));
        assert!(flagged(name, "src/lib.rs", "for r in scan_runs(&b) {"));
        assert!(flagged(name, "src/lib.rs", "let n = kv::rle_len(&b);"));
        assert!(!flagged(name, "src/lib.rs", "let n = page_rle_len(&b);"));
    }

    #[test]
    fn raw_sample_row() {
        let name = "durations are recorded as durations";
        let hit = "self.latency.record(d.as_micros_f64());";
        four_cases(name, "crates/core/src/monitor/mod.rs", hit, false, false);
        assert!(!flagged(
            name,
            "src/lib.rs",
            "h.record(label, d.as_micros_f64());"
        ));
        assert!(!flagged(name, "src/lib.rs", "s.record_duration(d);"));
    }

    #[test]
    fn production_code_after_an_out_of_line_test_module_is_scanned() {
        // `#[cfg(test)] mod tests;` early in a file once hid the rest of
        // it from every lint that stopped reading at the attribute.
        let text = "mod engine;\n#[cfg(test)]\nmod tests;\n\nimpl Monitor {\n    pub fn new(config: MonitorConfig) -> Self {\n        let parked: HashMap<u64, u64> = HashMap::new();\n        if config.max_inflight > 3 {\n";
        let path = Path::new("crates/core/src/monitor/mod.rs");
        let hasher = scan(row("default-hasher maps on the per-page paths"), path, text);
        assert_eq!(hasher.len(), 1, "{hasher:?}");
        assert!(hasher[0].starts_with("crates/core/src/monitor/mod.rs:7: "));
        let depth = scan(row("depth is a bound, not a mode"), path, text);
        assert!(depth.len() == 1 && depth[0].contains(":8: "), "{depth:?}");
    }

    #[test]
    fn a_test_module_ends_at_its_own_closing_brace() {
        let text = "#[cfg(test)]\n#[allow(dead_code)]\npub(crate) mod tests {\n    fn f() {\n    }\n}\nfn g() {}\n    mod inner {\n    #[cfg(test)]\n    mod t {\n    }\n    }\n";
        let kept: Vec<usize> = production_lines(text, true)
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(kept, [1, 2, 7, 8, 9, 12]);
        assert_eq!(production_lines(text, false).len(), 12);
    }

    #[test]
    fn every_root_and_skip_exists() {
        for lint in LINTS {
            for path in lint.roots.split(' ') {
                let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path.trim_start_matches('!'));
                assert!(full.exists(), "{}: {path} does not exist", lint.name);
            }
        }
    }

    #[test]
    fn byte_compare_fails_on_differing_output() {
        assert_eq!(same("stdout", b"a\nb\n", b"a\nb\n"), Ok(()));
        let err = same("stdout", b"a\nb\n", b"a\nc\n").unwrap_err();
        assert!(err.starts_with("stdout differs"), "{err}");
        assert!(
            same("JSON", b"a\n", b"a\nb\n").is_err(),
            "a longer run differs too"
        );
    }

    #[test]
    fn a_failed_command_reports_its_stdout() {
        let mut ok = Command::new("sh");
        assert_eq!(output(ok.args(["-c", "echo hi"])), Ok(b"hi\n".to_vec()));
        let mut failing = Command::new("sh");
        let err = output(failing.args(["-c", "echo self-check report; exit 3"])).unwrap_err();
        assert!(
            err.contains("failed") && err.ends_with("self-check report\n"),
            "{err}"
        );
    }

    #[test]
    fn fields_are_typed_and_missing_ones_fail() {
        let json = concat!(
            "{\"bench\":\"p\",\"depth\":16,\"tail_win\":true,\"p99\":1.5e1}\n",
            "{\"bench\":\"p\",\"depth\":1,\"p99\":2}\n",
            "{\"bench\":\"p_x\",\"depth\":2,\"p99\":3}\n",
        );
        let r = records(json, "p").unwrap()[0];
        assert_eq!(field::<bool>(r, "tail_win"), Ok(true));
        assert!(
            field::<u64>(r, "tail_win").is_err(),
            "a bool is not a count"
        );
        assert!(
            field::<u64>(r, "lost_pages").is_err(),
            "a missing field fails"
        );
        assert_eq!(field::<u64>(r, "depth"), Ok(16), "not the prefix 1");
        assert_eq!(field_at(json, "p", "depth", 16, "p99"), Ok(15.0));
        assert_eq!(field_at(json, "p", "depth", 1, "p99"), Ok(2.0));
        assert!(
            field_at(json, "p", "depth", 2, "p99").is_err(),
            "p_x is another bench"
        );
        assert!(records(json, "q").is_err(), "no records fails");
        assert!(zero(json, "p_x", "depth").is_err());
        assert!(
            zero(json, "p", "floor_misses").is_err(),
            "an absent field fails"
        );
        assert_eq!(zero("{\"bench\":\"q\",\"n\":0}", "q", "n"), Ok(()));
    }
}
