//! End-to-end tests of the serve daemon: warm hits, bit-identity with cold
//! batch runs, checkpoint/restart, signature-directed delta invalidation,
//! and the protocol error vocabulary. Every op and every documented
//! `serve.*` counter is exercised here.

use hh_serve::client::{Client, ClientError};
use hh_serve::json::Json;
use hh_serve::proto::{read_frame, write_frame, MAX_FRAME, PROTOCOL_VERSION};
use hh_serve::server::{Bind, Server, ServerConfig};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Daemon {
    addr: String,
    handle: Option<std::thread::JoinHandle<std::io::Result<hh_serve::server::ServerCounters>>>,
}

impl Daemon {
    /// Boots an in-process daemon on an ephemeral TCP port.
    fn start(state_dir: Option<PathBuf>) -> Daemon {
        let config = ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            state_dir,
            threads: 2,
            checkpoint_every: 0,
        };
        let (server, _notes) = Server::bind(config).expect("bind");
        let addr = server.local_addr().expect("tcp addr").to_string();
        let handle = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect")
    }

    /// Shuts the daemon down and joins the accept loop.
    fn stop(mut self) {
        self.client().shutdown().expect("shutdown");
        self.handle
            .take()
            .unwrap()
            .join()
            .expect("join")
            .expect("run");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn i64_field(resp: &Json, key: &str) -> i64 {
    resp.get(key)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("missing i64 field {key} in {resp}"))
}

fn str_arr(resp: &Json, key: &str) -> Vec<String> {
    resp.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing array field {key}"))
        .iter()
        .map(|j| j.as_str().expect("string entry").to_string())
        .collect()
}

// ---------------------------------------------------------------------------
// A toy design with independent observable cones. `obs_a <= a`, `obs_b <= b`,
// a secret register the observables never read, and a 32-bit instruction
// input the datapath ignores — so every safe set proves, fast.
// ---------------------------------------------------------------------------

const TOY_V1: &str = "\
1 sort bitvec 8
2 sort bitvec 32
3 input 2 instr
4 state 1 sec1
5 state 1 sec2
6 state 1 sec3
7 state 1 sec4
8 state 1 a
9 state 1 b
10 state 1 obs_a
11 state 1 obs_b
12 zero 1
13 one 1
14 init 1 4 12
15 init 1 5 12
16 init 1 6 12
17 init 1 7 12
18 init 1 8 12
19 init 1 9 12
20 init 1 10 12
21 init 1 11 12
22 next 1 4 4
23 next 1 5 5
24 next 1 6 6
25 next 1 7 7
26 add 1 8 13
27 next 1 8 26
28 xor 1 9 13
29 next 1 9 28
30 next 1 10 8
31 next 1 11 9
";

/// V2 changes only `b`'s update function (`xor` → `and`). The cones of the
/// secrets, `a`, `obs_a` and `obs_b` are untouched, so only memo entries
/// whose target reads `next(b)` may be invalidated.
const TOY_V2: &str = "\
1 sort bitvec 8
2 sort bitvec 32
3 input 2 instr
4 state 1 sec1
5 state 1 sec2
6 state 1 sec3
7 state 1 sec4
8 state 1 a
9 state 1 b
10 state 1 obs_a
11 state 1 obs_b
12 zero 1
13 one 1
14 init 1 4 12
15 init 1 5 12
16 init 1 6 12
17 init 1 7 12
18 init 1 8 12
19 init 1 9 12
20 init 1 10 12
21 init 1 11 12
22 next 1 4 4
23 next 1 5 5
24 next 1 6 6
25 next 1 7 7
26 add 1 8 13
27 next 1 8 26
28 and 1 9 13
29 next 1 9 28
30 next 1 10 8
31 next 1 11 9
";

/// Five designs whose widths do not fit together: an `and` of an 8-bit and
/// a 4-bit state, a 4-bit `next` of an 8-bit state, bit 20 of an 8-bit
/// state, a `uext` to fewer bits and a 40 + 40-bit `concat`.
const WIDTH_INCONSISTENT_BTOR2: [&str; 5] = [
    "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 state 2 b\n5 and 1 3 4\n",
    "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 state 2 b\n5 next 1 3 4\n",
    "1 sort bitvec 8\n2 sort bitvec 21\n3 state 1 a\n4 slice 2 3 20 0\n",
    "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 uext 2 3 0\n",
    "1 sort bitvec 40\n2 sort bitvec 64\n3 state 1 a\n4 concat 2 3 3\n",
];

fn toy_design_field(name: &str, src: &str) -> (&'static str, Json) {
    (
        "design",
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("btor2", Json::Str(src.to_string())),
            ("instr_input", Json::Str("instr".to_string())),
            (
                "observables",
                Json::Arr(vec![
                    Json::Str("obs_a".to_string()),
                    Json::Str("obs_b".to_string()),
                ]),
            ),
            (
                "secret_regs",
                Json::Arr(
                    ["sec1", "sec2", "sec3", "sec4"]
                        .iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
            ("xlen", Json::Int(8)),
            ("max_latency", Json::Int(2)),
        ]),
    )
}

fn toy_learn_fields(name: &str, src: &str) -> Vec<(&'static str, Json)> {
    vec![
        toy_design_field(name, src),
        ("safe", Json::Str("alu".to_string())),
        ("pairs", Json::Int(1)),
        ("threads", Json::Int(2)),
    ]
}

// ---------------------------------------------------------------------------
// Warm hits
// ---------------------------------------------------------------------------

/// The acceptance property: the second identical request is answered
/// entirely from warm state — memo seeded, zero SMT queries, zero fresh
/// cone blasts — and the invariant is bit-identical. A memo flush then
/// proves the encode cache itself replays (hits > 0, misses == 0).
#[test]
fn second_identical_request_is_a_warm_hit() {
    let daemon = Daemon::start(None);
    let mut c = daemon.client();

    let cold = c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    assert_eq!(cold.get("result").unwrap().as_str(), Some("proved"));
    assert!(i64_field(&cold, "smt_queries") > 0, "cold run must solve");
    assert!(
        i64_field(&cold, "cache_misses") > 0,
        "cold run blasts cones"
    );
    assert_eq!(cold.get("warm_hit").unwrap(), &Json::Bool(false));
    let cold_inv = str_arr(&cold, "invariant");
    assert!(!cold_inv.is_empty());

    let warm = c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    assert_eq!(warm.get("result").unwrap().as_str(), Some("proved"));
    assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert!(i64_field(&warm, "memo_seeded") > 0);
    assert_eq!(
        i64_field(&warm, "memo_seeded"),
        i64_field(&warm, "memo_reused"),
        "every seed must survive an identical request"
    );
    assert_eq!(i64_field(&warm, "smt_queries"), 0, "zero fresh solving");
    assert_eq!(i64_field(&warm, "cache_misses"), 0, "zero fresh blasting");
    assert_eq!(i64_field(&warm, "relearned"), 0);
    assert_eq!(str_arr(&warm, "invariant"), cold_inv, "bit-identical");

    // Drop the memo but keep the encode cache: the re-learn must re-solve
    // (queries > 0) yet serve every base encoding by replay.
    let flushed = c.flush("memo", Some("toy")).unwrap();
    assert_eq!(i64_field(&flushed, "jobs_cleared"), 1);
    assert!(i64_field(&flushed, "entries_dropped") > 0);
    let replay = c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    assert!(i64_field(&replay, "smt_queries") > 0, "memo was flushed");
    assert!(i64_field(&replay, "cache_hits") > 0, "cache must replay");
    assert_eq!(
        i64_field(&replay, "cache_misses"),
        0,
        "no cone shape is new to the resident cache"
    );
    assert_eq!(str_arr(&replay, "invariant"), cold_inv, "replay-identical");

    // Counters surface through status too.
    let status = c.status().unwrap();
    assert_eq!(i64_field(&status, "warm_hits"), 1);
    assert_eq!(i64_field(&status, "learns"), 3);
    daemon.stop();
}

/// Warm-served invariants are bit-identical to a cold batch run of the
/// library pipeline, at every thread count.
#[test]
fn warm_answers_match_cold_batch_at_every_thread_count() {
    use hh_isa::{InstrClass, ALL_MNEMONICS};
    use hh_netlist::btor2::parse_btor2;
    use hh_uarch::Design;
    use veloct::{Veloct, VeloctConfig};

    let netlist = parse_btor2(TOY_V1).unwrap();
    let find = |n: &str| netlist.find_state(n).unwrap();
    let design = Design {
        instr_input: "instr".to_string(),
        observable: vec![find("obs_a"), find("obs_b")],
        secret_regs: vec![find("sec1"), find("sec2"), find("sec3"), find("sec4")],
        masking: vec![],
        nregs: 5,
        xlen: 8,
        max_latency: 2,
        example_depth: 8,
        netlist,
    };
    let safe: Vec<_> = ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| m.class() == InstrClass::Alu)
        .collect();

    let daemon = Daemon::start(None);
    let mut c = daemon.client();
    c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();

    for threads in [1i64, 2, 4] {
        let mut fields = toy_learn_fields("toy", TOY_V1);
        fields.retain(|(k, _)| *k != "threads");
        fields.push(("threads", Json::Int(threads)));
        let warm = c.request("learn", fields).unwrap();
        assert_eq!(
            warm.get("warm_hit").unwrap(),
            &Json::Bool(true),
            "thread count must not key warm state"
        );

        let veloct = Veloct::with_config(
            &design,
            VeloctConfig {
                threads: threads as usize,
                pairs_per_instr: 1,
                ..VeloctConfig::default()
            },
        );
        // Invariant predicates live over the product (miter) netlist; the
        // wire serialization needs its state names.
        let (miter, _) = veloct.build_miter(&safe);
        let cold = veloct.learn(&safe);
        let inv = cold.invariant.expect("cold learn proves");
        let mut cold_preds: Vec<String> = inv
            .preds()
            .iter()
            .map(|p| p.to_wire(miter.netlist()))
            .collect();
        cold_preds.sort();
        let mut warm_preds = str_arr(&warm, "invariant");
        warm_preds.sort();
        assert_eq!(warm_preds, cold_preds, "warm != cold at threads={threads}");
    }
    daemon.stop();
}

// ---------------------------------------------------------------------------
// Checkpoint / restart
// ---------------------------------------------------------------------------

/// Learn fields for the builtin rocketlite design — the certify leg of the
/// restart test. Certificates reference the design by constructor name, so
/// only builtin designs are certifiable over the wire.
fn rocket_learn_fields() -> Vec<(&'static str, Json)> {
    vec![
        (
            "design",
            Json::obj(vec![
                ("name", Json::Str("rocket".to_string())),
                ("builtin", Json::Str("rocketlite".to_string())),
                ("xlen", Json::Int(16)),
            ]),
        ),
        ("safe", Json::Str("alu".to_string())),
        ("pairs", Json::Int(1)),
        ("threads", Json::Int(2)),
        ("certify", Json::Bool(true)),
    ]
}

/// Kill-and-restart from a checkpoint reproduces the answer with zero
/// solving, and the certificate bundle re-emitted from restored state
/// passes the independent `hh-proof` checker.
#[test]
fn restart_from_checkpoint_reproduces_answers() {
    let dir = temp_dir("restart");

    let daemon = Daemon::start(Some(dir.clone()));
    let mut c = daemon.client();
    // Leg 1: a btor2 design shipped in the frame (warm restore of inlined
    // sources). Not certifiable — the checker cannot re-derive it.
    let toy_fields = toy_learn_fields("toy", TOY_V1);
    let toy_cold = c.request("learn", toy_fields.clone()).unwrap();
    let toy_inv = str_arr(&toy_cold, "invariant");
    let mut bad = toy_learn_fields("toy", TOY_V1);
    bad.push(("certify", Json::Bool(true)));
    expect_server_error(c.request("learn", bad), "bad-request");
    // Leg 2: a builtin design with certification.
    let cold = c.request("learn", rocket_learn_fields()).unwrap();
    let cold_inv = str_arr(&cold, "invariant");
    let cert_path = PathBuf::from(cold.get("certificate").unwrap().as_str().unwrap());
    let report = hh_proof::cert::check_bundle(&cert_path).expect("bundle checks");
    assert!(report.obligations > 0);
    daemon.stop(); // checkpoints on the way down

    // A fresh process (modelled by a fresh server) restores the state dir.
    let daemon2 = Daemon::start(Some(dir.clone()));
    let mut c2 = daemon2.client();
    let status = c2.status().unwrap();
    let designs = status.get("designs").unwrap().as_arr().unwrap();
    assert_eq!(designs.len(), 2, "both designs restored from checkpoint");
    for d in designs {
        assert_eq!(
            d.get("jobs").unwrap().as_arr().unwrap()[0]
                .get("proved")
                .unwrap(),
            &Json::Bool(true)
        );
    }

    let toy_warm = c2.request("learn", toy_fields).unwrap();
    assert_eq!(toy_warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(
        i64_field(&toy_warm, "smt_queries"),
        0,
        "restart keeps warmth"
    );
    assert_eq!(str_arr(&toy_warm, "invariant"), toy_inv);

    let warm = c2.request("learn", rocket_learn_fields()).unwrap();
    assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(i64_field(&warm, "smt_queries"), 0, "restart keeps warmth");
    assert_eq!(str_arr(&warm, "invariant"), cold_inv);
    // The bundle survives the shutdown checkpoint and was re-emitted from
    // restored solutions; both ways it must satisfy the checker.
    assert!(
        cert_path.join("MANIFEST").exists(),
        "bundle survives restart"
    );
    let cert2 = PathBuf::from(warm.get("certificate").unwrap().as_str().unwrap());
    hh_proof::cert::check_bundle(&cert2).expect("restored bundle checks");
    daemon2.stop();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every mnemonic's printed name parses back to it, and a state directory
/// written when `sltiu` was still printed as `sltui` (and therefore sorted
/// after `sltu`) restores warm under the corrected spelling.
#[test]
fn mnemonic_names_round_trip_and_legacy_sltui_state_restores() {
    use hh_serve::request::mnemonic_by_name;
    for &m in hh_isa::ALL_MNEMONICS.iter() {
        assert_eq!(mnemonic_by_name(m.name()), Some(m), "{m:?}");
    }
    assert_eq!(hh_isa::Mnemonic::Sltiu.name(), "sltiu");
    assert_eq!(mnemonic_by_name("sltui"), Some(hh_isa::Mnemonic::Sltiu));

    let dir = temp_dir("legacy-sltui");
    let mut fields = rocket_learn_fields();
    fields.retain(|(k, _)| *k != "certify");
    let daemon = Daemon::start(Some(dir.clone()));
    let cold = daemon.client().request("learn", fields.clone()).unwrap();
    daemon.stop(); // checkpoints on the way down

    // Rewrite every job.json the way the old binary would have written it.
    let jobs = files_under(&dir, |p| p.file_name().is_some_and(|n| n == "job.json"));
    assert!(!jobs.is_empty());
    for job in jobs {
        let text = std::fs::read_to_string(&job).unwrap();
        let legacy = text.replace("\"sltiu\",\"sltu\"", "\"sltu\",\"sltui\"");
        assert_ne!(legacy, text, "job.json lists the ALU safe set");
        std::fs::write(&job, legacy).unwrap();
    }

    let daemon2 = Daemon::start(Some(dir.clone()));
    let warm = daemon2.client().request("learn", fields).unwrap();
    assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(str_arr(&warm, "invariant"), str_arr(&cold, "invariant"));
    daemon2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites every `job.json` under `dir` through `edit`.
fn edit_job_files(dir: &Path, edit: impl Fn(&mut std::collections::BTreeMap<String, Json>)) {
    let jobs = files_under(dir, |p| p.file_name().is_some_and(|n| n == "job.json"));
    assert!(!jobs.is_empty());
    for job in jobs {
        let Json::Obj(mut meta) = Json::parse(&std::fs::read_to_string(&job).unwrap()).unwrap()
        else {
            panic!("job.json is an object")
        };
        edit(&mut meta);
        std::fs::write(&job, Json::Obj(meta).to_string()).unwrap();
    }
}

/// A `job.json` and a frame default a missing field alike: a job stored
/// without `pairs` and `seed` restores under the key of a frame that
/// carries neither, so that frame is a warm hit. (Once a restored job
/// defaulted them to 1 and 0, the frame to 2 and 0xD1CE, and the frame
/// learned cold beside an unreachable job.)
#[test]
fn job_json_without_pairs_or_seed_restores_under_the_frame_defaults() {
    let dir = temp_dir("job-defaults");
    let mut fields = toy_learn_fields("toy", TOY_V1);
    fields.retain(|(k, _)| *k != "pairs");
    let daemon = Daemon::start(Some(dir.clone()));
    let cold = daemon.client().request("learn", fields.clone()).unwrap();
    daemon.stop();

    edit_job_files(&dir, |meta| {
        assert!(meta.remove("pairs").is_some() && meta.remove("seed").is_some());
    });
    let daemon = Daemon::start(Some(dir.clone()));
    let warm = daemon.client().request("learn", fields).unwrap();
    assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(i64_field(&warm, "smt_queries"), 0);
    assert_eq!(str_arr(&warm, "invariant"), str_arr(&cold, "invariant"));
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `job.json` is read by the frame's rules: `pairs` of 0 or 2^40 (which
/// a frame answers `bad-request`) is not restored but named in a boot
/// warning. (Once both were cast into the job key unchecked.)
#[test]
fn job_json_with_pairs_out_of_range_is_skipped_with_a_warning() {
    use hh_serve::state::ServeState;
    let dir = temp_dir("job-pairs");
    let daemon = Daemon::start(Some(dir.clone()));
    daemon
        .client()
        .request("learn", toy_learn_fields("toy", TOY_V1))
        .unwrap();
    daemon.stop();

    for pairs in [0, 1 << 40] {
        edit_job_files(&dir, |meta| {
            meta.insert("pairs".to_string(), Json::Int(pairs));
        });
        let (restored, warnings) = ServeState::new(Some(dir.clone())).restore();
        assert_eq!(restored.jobs, 0, "pairs {pairs}");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].contains("pairs must be an integer in 1..=64"),
            "{warnings:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, recursively, that `pick` accepts.
fn files_under(dir: &Path, pick: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if pick(&p) {
                found.push(p);
            }
        }
    }
    found
}

/// Every `*.tmp` file under `dir`, recursively.
fn tmp_debris(dir: &Path) -> Vec<PathBuf> {
    files_under(dir, |p| p.extension().is_some_and(|x| x == "tmp"))
}

/// State directories written while learnt-clause pools existed carry a
/// `pools.txt` per job. Its clauses used to be fed to solvers unchecked, so
/// a restore must never open it: whatever it holds, the job comes back warm
/// with its solutions and invariant, the boot notes say once that pools are
/// gone, and the next checkpoint deletes the file. A checkpoint of this
/// daemon never writes one.
#[test]
fn stale_pools_files_are_ignored_and_removed() {
    let pools = |dir: &Path| files_under(dir, |p| p.file_name().is_some_and(|n| n == "pools.txt"));

    let dir = temp_dir("stale-pools");
    let daemon = Daemon::start(Some(dir.clone()));
    let mut c = daemon.client();
    let toy = toy_learn_fields("toy", TOY_V1);
    let toy_inv = str_arr(&c.request("learn", toy.clone()).unwrap(), "invariant");
    let mut rocket = rocket_learn_fields();
    rocket.retain(|(k, _)| *k != "certify");
    let rocket_inv = str_arr(&c.request("learn", rocket.clone()).unwrap(), "invariant");
    c.checkpoint().unwrap();
    assert!(pools(&dir).is_empty(), "a checkpoint writes no pools.txt");
    daemon.stop();

    // Neither a pool key, nor a clause under a key, nor text at all.
    let jobs = files_under(&dir, |p| p.file_name().is_some_and(|n| n == "job.json"));
    assert_eq!(jobs.len(), 2);
    for job in &jobs {
        std::fs::write(job.with_file_name("pools.txt"), b"K zz\nC 1\n\0\xff").unwrap();
    }

    let mut state = hh_serve::state::ServeState::new(Some(dir.clone()));
    let (restored, warnings) = state.restore();
    assert_eq!(restored.jobs, 2, "garbage pools must not drop a job");
    let notes: Vec<&String> = warnings.iter().filter(|w| w.contains("pools")).collect();
    assert_eq!(notes.len(), 1, "one note for all files: {warnings:?}");
    assert_eq!(warnings.len(), 1, "and nothing else: {warnings:?}");
    drop(state);

    let daemon2 = Daemon::start(Some(dir.clone()));
    let mut c2 = daemon2.client();
    for (fields, inv) in [(toy, toy_inv), (rocket, rocket_inv)] {
        let warm = c2.request("learn", fields).unwrap();
        assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
        assert_eq!(i64_field(&warm, "smt_queries"), 0, "restore keeps warmth");
        assert_eq!(str_arr(&warm, "invariant"), inv);
    }
    assert_eq!(pools(&dir).len(), 2, "restore leaves the files alone");
    c2.checkpoint().unwrap();
    assert!(pools(&dir).is_empty(), "the next checkpoint removes them");
    daemon2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint killed between tmp-write and rename leaves a synced `.tmp`
/// sibling and no renamed file. Whichever of the five per-job writes the
/// kill lands on, a restart must sweep the debris and come back warm from
/// the last completed checkpoint, answering identically to pre-crash.
#[test]
fn killed_mid_checkpoint_restarts_warm_from_last_good_state() {
    use hh_serve::state::ServeState;

    let dir = temp_dir("crash");
    let daemon = Daemon::start(Some(dir.clone()));
    let mut c = daemon.client();
    let cold = c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    let inv = str_arr(&cold, "invariant");
    daemon.stop(); // checkpoints on the way down: the last good state

    // Re-run the checkpoint, killing it at each atomic write in turn
    // (VERSION, spec, job meta, solutions, invariant).
    for crash_after in 0..5 {
        let mut state = ServeState::new(Some(dir.clone()));
        let (restored, warnings) = state.restore();
        assert_eq!(restored.jobs, 1, "warm state restores before the crash");
        assert!(warnings.is_empty(), "dir was clean: {warnings:?}");
        let err = state
            .checkpoint_crash_after(crash_after)
            .expect_err("the injected crash must surface");
        assert!(err.to_string().contains("injected checkpoint crash"));
        assert!(
            !tmp_debris(&dir).is_empty(),
            "crash at write {crash_after} leaves tmp debris"
        );

        let mut after = ServeState::new(Some(dir.clone()));
        let (restored, warnings) = after.restore();
        assert_eq!(
            restored.jobs, 1,
            "crash at write {crash_after} must not lose the last good state"
        );
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("removed half-written checkpoint debris")),
            "sweep must report the debris: {warnings:?}"
        );
        assert!(tmp_debris(&dir).is_empty(), "sweep leaves nothing behind");
    }

    // Leave one crash un-swept and boot a real daemon on the debris: the
    // server restore path must clean it and answer warm and identically.
    let mut state = ServeState::new(Some(dir.clone()));
    state.restore();
    state.checkpoint_crash_after(3).expect_err("injected");
    assert!(!tmp_debris(&dir).is_empty());

    let daemon2 = Daemon::start(Some(dir.clone()));
    let mut c2 = daemon2.client();
    let warm = c2
        .request("learn", toy_learn_fields("toy", TOY_V1))
        .unwrap();
    assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(i64_field(&warm, "smt_queries"), 0, "restart keeps warmth");
    assert_eq!(str_arr(&warm, "invariant"), inv, "identical to pre-crash");
    daemon2.stop();
    assert!(tmp_debris(&dir).is_empty(), "boot swept the debris");

    // Claim-at-boot rejection: a brand-new dir whose very first checkpoint
    // died at the VERSION write holds only `VERSION.tmp`. Boot must remove
    // it — never mistake it for a claim — then claim the dir cleanly.
    let fresh = temp_dir("crash-fresh");
    let state = ServeState::new(Some(fresh.clone()));
    state.checkpoint_crash_after(0).expect_err("injected");
    assert!(fresh.join("VERSION.tmp").exists());
    assert!(!fresh.join("VERSION").exists());
    let mut state2 = ServeState::new(Some(fresh.clone()));
    let (_, w) = state2.restore();
    assert!(
        w.iter()
            .any(|m| m.contains("removed half-written checkpoint debris")),
        "rejection must be reported: {w:?}"
    );
    assert!(fresh.join("VERSION").exists(), "claimed after sweeping");
    assert!(!fresh.join("VERSION.tmp").exists());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

/// The response fields that describe the *answer* rather than the work it
/// took: everything but the memo, solver and cache counters and the time.
fn answer_fields(resp: &Json) -> Vec<(String, Json)> {
    const WORK: [&str; 10] = [
        "id",
        "memo_seeded",
        "memo_reused",
        "relearned",
        "smt_queries",
        "cache_hits",
        "cache_misses",
        "warm_hit",
        "elapsed_ms",
        "certificate",
    ];
    let Json::Obj(fields) = resp else {
        panic!("response is an object: {resp}")
    };
    let mut answer: Vec<(String, Json)> = fields
        .iter()
        .filter(|(k, _)| !WORK.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    answer.sort_by(|a, b| a.0.cmp(&b.0));
    answer
}

/// A warm hit generates no example and runs no engine, yet answers what the
/// cold learn answered, field for field — `num_examples` included, which it
/// reads from the resident job — and so does the first hit after a restart.
#[test]
fn warm_and_restored_answers_equal_the_cold_one_field_for_field() {
    let dir = temp_dir("fields");
    let mut rocket = rocket_learn_fields();
    rocket.retain(|(k, _)| *k != "certify");
    for (tag, fields) in [("toy", toy_learn_fields("toy", TOY_V1)), ("rocket", rocket)] {
        let daemon = Daemon::start(Some(dir.clone()));
        let mut c = daemon.client();
        let cold = c.request("learn", fields.clone()).unwrap();
        assert_eq!(cold.get("warm_hit").unwrap(), &Json::Bool(false), "{tag}");
        assert!(i64_field(&cold, "num_examples") > 0);
        let answer = answer_fields(&cold);
        assert!(answer.iter().any(|(k, _)| k == "num_examples"));
        assert!(answer.iter().any(|(k, _)| k == "invariant"));

        for _ in 0..2 {
            let warm = c.request("learn", fields.clone()).unwrap();
            assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true), "{tag}");
            assert_eq!(answer_fields(&warm), answer, "{tag}: warm != cold");
            assert_eq!(
                i64_field(&warm, "memo_seeded"),
                i64_field(&warm, "memo_reused")
            );
            for zero in ["relearned", "smt_queries", "cache_hits", "cache_misses"] {
                assert_eq!(i64_field(&warm, zero), 0, "{tag}: {zero}");
            }
        }
        daemon.stop();

        let daemon2 = Daemon::start(Some(dir.clone()));
        let restored = daemon2.client().request("learn", fields).unwrap();
        assert_eq!(restored.get("warm_hit").unwrap(), &Json::Bool(true));
        assert_eq!(answer_fields(&restored), answer, "{tag}: restored != cold");
        daemon2.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memo table that lost an entry on disk is not closed: the restored
/// daemon does not answer from it but runs the engine, re-learns what is
/// missing and reaches the identical invariant.
#[test]
fn truncated_solution_table_falls_back_to_the_engine() {
    let dir = temp_dir("truncated");
    let fields = toy_learn_fields("toy", TOY_V1);
    let daemon = Daemon::start(Some(dir.clone()));
    let cold = daemon.client().request("learn", fields.clone()).unwrap();
    daemon.stop(); // checkpoints on the way down

    // Delete the last `T …` / `P …`* / `.` block.
    let tables = files_under(&dir, |p| {
        p.file_name().is_some_and(|n| n == "solutions.txt")
    });
    assert_eq!(tables.len(), 1);
    let text = std::fs::read_to_string(&tables[0]).unwrap();
    let last = text.rfind("T ").expect("a checkpointed table has entries");
    assert!(text[last..].ends_with(".\n") && text[..last].ends_with(".\n"));
    std::fs::write(&tables[0], &text[..last]).unwrap();

    let daemon2 = Daemon::start(Some(dir.clone()));
    let mut c = daemon2.client();
    let relearned = c.request("learn", fields.clone()).unwrap();
    assert_eq!(relearned.get("result").unwrap().as_str(), Some("proved"));
    assert_eq!(relearned.get("warm_hit").unwrap(), &Json::Bool(false));
    assert!(i64_field(&relearned, "relearned") > 0);
    assert!(i64_field(&relearned, "memo_seeded") > 0, "the rest seeds");
    assert_eq!(answer_fields(&relearned), answer_fields(&cold));
    // The table is whole again.
    let warm = c.request("learn", fields).unwrap();
    assert_eq!(warm.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(answer_fields(&warm), answer_fields(&cold));
    daemon2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Design deltas
// ---------------------------------------------------------------------------

/// A signature-preserving delta re-learns only the changed cones: the `b`
/// update function changes, so exactly the memo entries reading `next(b)`
/// are invalidated; everything else seeds the re-run.
#[test]
fn delta_relearns_only_changed_cones() {
    let daemon = Daemon::start(None);
    let mut c = daemon.client();

    let v1 = c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    assert_eq!(v1.get("result").unwrap().as_str(), Some("proved"));
    let v1_queries = i64_field(&v1, "smt_queries");

    // `verify` is the incremental-re-verification op: it requires the warm
    // baseline this job now has.
    let v2 = c
        .request("verify", toy_learn_fields("toy", TOY_V2))
        .unwrap();
    assert_eq!(v2.get("result").unwrap().as_str(), Some("proved"));
    let invalidated = i64_field(&v2, "invalidated");
    let seeded = i64_field(&v2, "memo_seeded");
    let reused = i64_field(&v2, "memo_reused");
    assert!(invalidated >= 1, "the changed cone must be invalidated");
    assert!(seeded >= 1, "unchanged cones must carry over");
    assert!(reused >= 1, "carried-over entries must be reused");
    assert_eq!(seeded, reused, "no seed should go stale on this delta");
    let v2_queries = i64_field(&v2, "smt_queries");
    assert!(v2_queries > 0, "the changed cone must be re-learned");
    assert!(
        v2_queries < v1_queries,
        "incremental re-verification must solve less than the cold run \
         ({v2_queries} vs {v1_queries})"
    );

    // Same delta again: now fully warm.
    let again = c
        .request("verify", toy_learn_fields("toy", TOY_V2))
        .unwrap();
    assert_eq!(again.get("warm_hit").unwrap(), &Json::Bool(true));
    assert_eq!(i64_field(&again, "invalidated"), 0);
    daemon.stop();
}

/// A delta that leaves every memoised cone alone — here only an annotation
/// that shapes the example programs changes — carries the whole table over,
/// closed. It is still not answered from the table: the examples of the new
/// design were never checked for divergence, so they are regenerated, and
/// the answer is the one a daemon that never saw the old design gives.
#[test]
fn delta_that_invalidates_nothing_still_regenerates_the_examples() {
    let longer_latency = |name: &str| {
        let mut fields = toy_learn_fields(name, TOY_V1);
        let Json::Obj(design) = &mut fields[0].1 else {
            panic!("toy design is an object")
        };
        design.insert("max_latency".to_string(), Json::Int(5));
        fields
    };
    let fresh = Daemon::start(None);
    let reference = fresh
        .client()
        .request("learn", longer_latency("toy"))
        .unwrap();
    fresh.stop();

    let daemon = Daemon::start(None);
    let mut c = daemon.client();
    let v1 = c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    assert_ne!(
        i64_field(&v1, "num_examples"),
        i64_field(&reference, "num_examples"),
        "the annotation must change the example set for this test to bite"
    );
    let delta = c.request("learn", longer_latency("toy")).unwrap();
    assert_eq!(i64_field(&delta, "invalidated"), 0);
    assert_eq!(i64_field(&delta, "smt_queries"), 0);
    assert_eq!(
        i64_field(&delta, "memo_seeded"),
        i64_field(&delta, "memo_reused")
    );
    assert!(i64_field(&delta, "memo_seeded") > 0);
    assert_eq!(answer_fields(&delta), answer_fields(&reference));
    // Proved on this design now: the next request is answered from the table.
    let warm = c.request("learn", longer_latency("toy")).unwrap();
    assert_eq!(answer_fields(&warm), answer_fields(&reference));
    daemon.stop();
}

// ---------------------------------------------------------------------------
// Protocol errors
// ---------------------------------------------------------------------------

fn expect_server_error(r: Result<Json, ClientError>, code: &str) {
    match r {
        Err(ClientError::Server(c, _)) => assert_eq!(c, code),
        other => panic!("expected server error {code}, got {other:?}"),
    }
}

/// Every documented error code is producible, and none of them poisons the
/// connection.
#[test]
fn error_vocabulary_round_trips() {
    let daemon = Daemon::start(None);
    let mut c = daemon.client();

    // bad-request: unknown op, malformed design name, bad safe set.
    expect_server_error(c.request("frobnicate", vec![]), "bad-request");
    expect_server_error(
        c.request(
            "learn",
            vec![(
                "design",
                Json::obj(vec![
                    ("name", Json::Str("no/slashes".to_string())),
                    ("builtin", Json::Str("rocketlite".to_string())),
                ]),
            )],
        ),
        "bad-request",
    );
    expect_server_error(
        c.request(
            "learn",
            vec![
                toy_design_field("toy", TOY_V1),
                ("safe", Json::Str("everything".to_string())),
            ],
        ),
        "bad-request",
    );

    // bad-design: unknown builtin, unparsable btor2, missing state.
    expect_server_error(
        c.request(
            "learn",
            vec![(
                "design",
                Json::obj(vec![
                    ("name", Json::Str("d".to_string())),
                    ("builtin", Json::Str("pentium4".to_string())),
                ]),
            )],
        ),
        "bad-design",
    );
    expect_server_error(
        c.request(
            "learn",
            vec![(
                "design",
                Json::obj(vec![
                    ("name", Json::Str("d".to_string())),
                    ("btor2", Json::Str("1 zort bitvec 8".to_string())),
                    ("instr_input", Json::Str("instr".to_string())),
                ]),
            )],
        ),
        "bad-design",
    );

    // unknown-design: verify of a never-registered design name, and flush of
    // a never-seen key.
    expect_server_error(
        c.request("verify", toy_learn_fields("fresh", TOY_V1)),
        "unknown-design",
    );
    expect_server_error(c.flush("memo", Some("never-seen")), "unknown-design");

    // no-baseline: the design is resident, but no learn ever ran for this
    // job key (pairs differs).
    c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    let other_key: Vec<(&str, Json)> = toy_learn_fields("toy", TOY_V1)
        .into_iter()
        .map(|(k, v)| {
            if k == "pairs" {
                (k, Json::Int(2))
            } else {
                (k, v)
            }
        })
        .collect();
    expect_server_error(c.request("verify", other_key), "no-baseline");

    // The connection is still healthy after every error.
    assert!(c.status().is_ok());
    daemon.stop();
}

/// Design parameters the core builders assert on must be refused at request
/// decode: a panic inside a learn poisons the state lock and takes the whole
/// daemon down with it. After every hostile frame a *new* connection still
/// gets a `status`, with the refusal counted.
#[test]
fn hostile_design_parameters_do_not_kill_the_daemon() {
    let daemon = Daemon::start(None);
    let builtin = |kind: &str, extra: (&'static str, Json)| {
        vec![(
            "design",
            Json::obj(vec![
                ("name", Json::Str("bad".to_string())),
                ("builtin", Json::Str(kind.to_string())),
                extra,
            ]),
        )]
    };
    let toy_with = |field: &str, value: i64| {
        let (key, design) = toy_design_field("bad", TOY_V1);
        let Json::Obj(mut fields) = design else {
            panic!("toy design is an object")
        };
        fields.insert(field.to_string(), Json::Int(value));
        vec![(key, Json::Obj(fields))]
    };
    let hostile = [
        builtin("rocketlite", ("xlen", Json::Int(3))),
        builtin("rocketlite", ("xlen", Json::Int(0))),
        builtin("rocketlite", ("xlen", Json::Int(65))),
        // 2^32 + 16 used to wrap to a plausible 16.
        builtin("rocketlite", ("xlen", Json::Int((1 << 32) + 16))),
        builtin("rocketlite", ("xlen", Json::Str("wide".to_string()))),
        builtin("boom-small", ("scale", Json::Int(3))),
        builtin("boom-small", ("scale", Json::Int(0))),
        builtin("boom-small", ("scale", Json::Int(1 << 40))),
        // The toy's secret registers are 8 bits wide.
        toy_with("xlen", 16),
        toy_with("xlen", 0),
        // Both size the example programs: 10^11 was a 400 GB allocation
        // that aborted the process.
        toy_with("max_latency", 100_000_000_000),
        toy_with("max_latency", 513),
        toy_with("example_depth", 100_000_000_000),
        toy_with("example_depth", 8193),
    ];
    // btor2 whose widths the netlist builders assert on: the parse used to
    // panic under the state lock.
    let btor2 = WIDTH_INCONSISTENT_BTOR2.map(|src| vec![toy_design_field("bad", src)]);
    let mut errors = 0;
    for fields in hostile.into_iter().chain(btor2) {
        let shown = format!("{fields:?}");
        expect_server_error(daemon.client().request("learn", fields), "bad-design");
        errors += 1;
        let status = daemon
            .client()
            .status()
            .unwrap_or_else(|e| panic!("daemon died after {shown}: {e:?}"));
        assert_eq!(i64_field(&status, "errors"), errors, "after {shown}");
    }

    // Run parameters: no example pair makes the miner assert, and every
    // worker thread is a spawn. Out of range is `bad-request`, for `learn`
    // and `verify` alike, on a design that would otherwise learn.
    let with = |key: &'static str, value: Json| {
        let mut fields = toy_learn_fields("toy", TOY_V1);
        fields.retain(|(k, _)| *k != key);
        fields.push((key, value));
        fields
    };
    let hostile_runs = [
        with("pairs", Json::Int(0)),
        with("pairs", Json::Int(65)),
        with("pairs", Json::Int(-1)),
        with("pairs", Json::Int(1 << 40)),
        with("pairs", Json::Str("many".to_string())),
        with("threads", Json::Int(0)),
        with("threads", Json::Int(257)),
        with("threads", Json::Int(1_000_000)),
        with("threads", Json::Bool(true)),
    ];
    for fields in hostile_runs {
        let shown = format!("{:?}", &fields[1..]);
        for op in ["learn", "verify"] {
            expect_server_error(daemon.client().request(op, fields.clone()), "bad-request");
            errors += 1;
            let status = daemon
                .client()
                .status()
                .unwrap_or_else(|e| panic!("daemon died after {op} {shown}: {e:?}"));
            assert_eq!(i64_field(&status, "errors"), errors, "after {op} {shown}");
        }
    }
    // The edges of both ranges are served.
    let mut edge = with("pairs", Json::Int(64));
    edge.retain(|(k, _)| *k != "threads");
    edge.push(("threads", Json::Int(256)));
    let resp = daemon.client().request("learn", edge).unwrap();
    assert_eq!(resp.get("result").unwrap().as_str(), Some("proved"));
    daemon.stop();
}

/// Version and framing errors, spoken raw (the typed client cannot produce
/// them): wrong `v` answers bad-version, a non-JSON body answers bad-json,
/// and both leave the connection usable.
#[test]
fn version_and_framing_errors() {
    let daemon = Daemon::start(None);
    let mut s = TcpStream::connect(&daemon.addr).unwrap();

    // Wrong protocol version.
    let req = Json::obj(vec![
        ("v", Json::Int(PROTOCOL_VERSION + 1)),
        ("id", Json::Int(9)),
        ("op", Json::Str("status".to_string())),
    ]);
    write_frame(&mut s, &req).unwrap();
    let resp = read_frame(&mut s).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("id"), Some(&Json::Int(9)));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("bad-version")
    );

    // Missing version field.
    let req = Json::obj(vec![
        ("id", Json::Int(10)),
        ("op", Json::Str("status".to_string())),
    ]);
    write_frame(&mut s, &req).unwrap();
    let resp = read_frame(&mut s).unwrap();
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("bad-version")
    );

    // A well-framed garbage body: bad-json, connection survives.
    use std::io::Write as _;
    s.write_all(&3u32.to_be_bytes()).unwrap();
    s.write_all(b"{{{").unwrap();
    s.flush().unwrap();
    let resp = read_frame(&mut s).unwrap();
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("bad-json")
    );
    let req = Json::obj(vec![
        ("v", Json::Int(PROTOCOL_VERSION)),
        ("id", Json::Int(11)),
        ("op", Json::Str("status".to_string())),
    ]);
    write_frame(&mut s, &req).unwrap();
    let resp = read_frame(&mut s).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    daemon.stop();
}

/// A frame that loses the framing (here an oversized length prefix) is
/// answered, counted once in `requests` and once in `errors`, and closes
/// its connection: `errors` never outgrows `requests`.
#[test]
fn oversized_frames_count_as_requests() {
    use std::io::Write as _;
    let daemon = Daemon::start(None);
    for _ in 0..2 {
        let mut s = TcpStream::connect(&daemon.addr).unwrap();
        s.write_all(&(MAX_FRAME as u32 + 1).to_be_bytes()).unwrap();
        s.flush().unwrap();
        let resp = read_frame(&mut s).unwrap();
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad-json")
        );
    }
    let status = daemon.client().status().unwrap();
    assert_eq!(i64_field(&status, "requests"), 3);
    assert_eq!(i64_field(&status, "errors"), 2);
    daemon.stop();
}

// ---------------------------------------------------------------------------
// Unix socket transport
// ---------------------------------------------------------------------------

/// The daemon speaks the same protocol over a Unix-domain socket.
#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let sock = std::env::temp_dir().join(format!("hh-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let (server, _) = Server::bind(ServerConfig {
        bind: Bind::Unix(sock.clone()),
        state_dir: None,
        threads: 2,
        checkpoint_every: 0,
    })
    .expect("bind unix");
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect_unix(&sock).expect("connect unix");
    let status = c.status().unwrap();
    assert_eq!(i64_field(&status, "requests"), 1);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(!sock.exists(), "socket file removed on shutdown");
}

/// A default thread count beyond what a `learn` frame may ask for is
/// refused at bind: frames without `threads` would take it unchecked.
#[test]
fn bind_refuses_a_default_thread_count_above_the_frame_bound() {
    let bind = |threads| {
        Server::bind(ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            threads,
            ..ServerConfig::default()
        })
    };
    let err = bind(257).err().expect("257 threads must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("0..=256"), "{err}");
    assert!(bind(256).is_ok());
    assert!(bind(0).is_ok());
}

// ---------------------------------------------------------------------------
// Trace counters
// ---------------------------------------------------------------------------

/// Every `serve.*` counter documented in docs/TRACE_SCHEMA.md and mapped in
/// docs/MONITORING.md fires under this one scenario: boot, cold learn, warm
/// learn, delta verify, flush, explicit checkpoint, framing error,
/// shutdown, restore.
#[test]
fn documented_trace_counters_all_fire() {
    hh_trace::init(hh_trace::TraceConfig::on());
    let dir = temp_dir("trace");

    let daemon = Daemon::start(Some(dir.clone()));
    let mut c = daemon.client();
    c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap();
    c.request("learn", toy_learn_fields("toy", TOY_V1)).unwrap(); // warm hit
    c.request("verify", toy_learn_fields("toy", TOY_V2))
        .unwrap(); // delta
    c.flush("memo", None).unwrap();
    c.checkpoint().unwrap();
    let _ = c.request("frobnicate", vec![]); // serve.error
    daemon.stop();

    let daemon2 = Daemon::start(Some(dir.clone())); // serve.restored_jobs
    daemon2.stop();
    // Connection threads harvest their trace rings into the global registry
    // when they exit; close our connection and poll-drain until the rings
    // land (thread exit is asynchronous).
    drop(c);

    let counters = [
        "serve.request",
        "serve.error",
        "serve.seeded",
        "serve.reused",
        "serve.invalidated",
        "serve.relearned",
        "serve.warm_hit",
        "serve.flush",
        "serve.checkpoint",
        "serve.restored_jobs",
    ];
    let want_events = ["serve.boot", "serve.shutdown"];
    let mut totals: std::collections::BTreeMap<&str, i64> = Default::default();
    let mut seen_events: Vec<&str> = Vec::new();
    for _ in 0..100 {
        let trace = hh_trace::drain();
        for (k, v) in trace.counter_totals() {
            *totals.entry(k).or_insert(0) += v;
        }
        seen_events.extend(trace.events.iter().map(|e| e.name));
        if counters.iter().all(|c| totals.contains_key(c))
            && want_events.iter().all(|e| seen_events.contains(e))
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    for counter in counters {
        assert!(
            totals.contains_key(counter),
            "counter {counter} never fired; totals: {totals:?}"
        );
    }
    for event in want_events {
        assert!(seen_events.contains(&event), "event {event} never fired");
    }
    hh_trace::init(hh_trace::TraceConfig::Off);
    let _ = std::fs::remove_dir_all(&dir);
}
