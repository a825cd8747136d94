//! The batch CLI and `veloct serve` refuse flag values the engine and the
//! core builders assert on with their usage text and exit status 2, not a
//! panic (101).

use std::process::Command;

#[test]
fn out_of_range_batch_flags_print_usage_and_exit_2() {
    for flag in [
        ["--xlen", "3"],
        ["--xlen", "33"],
        ["--threads", "0"],
        ["--threads", "100000"],
        ["--max-latency", "513"],
        ["--max-latency", "100000000000"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_veloct"))
            .args(["--builtin", "rocketlite"])
            .args(flag)
            .output()
            .expect("run veloct");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{flag:?} not named in: {stderr}");
        assert!(stderr.contains("usage: veloct"), "{flag:?}: {stderr}");
    }
}

/// A batch btor2 design goes through the checks the daemon makes, so a
/// design the example generator would assert on is an error naming the
/// offender with exit status 2, not a panic (101): a secret register that
/// is not `--xlen` bits (RocketLite, 16 bits, run with `--xlen 8`), an
/// instruction input that is not 32 bits, and fewer secret registers than
/// the example programs read.
#[test]
fn batch_btor2_designs_the_example_generator_rejects_exit_2() {
    use hh_netlist::btor2::to_btor2;
    use hh_netlist::{Bv, Netlist};

    let dir = std::env::temp_dir().join(format!("hh-serve-cli-btor2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("design.btor2");
    let run = |netlist: &Netlist, observable: &str, secrets: &[String]| {
        std::fs::write(&path, to_btor2(netlist)).unwrap();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_veloct"));
        cmd.arg("--design").arg(&path);
        cmd.args([
            "--instr-input",
            "instr",
            "--xlen",
            "8",
            "--observable",
            observable,
        ]);
        for s in secrets {
            cmd.args(["--secret-reg", s]);
        }
        let out = cmd.output().expect("run veloct");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        stderr
    };

    let rocket = hh_uarch::rocketlite::rocket_lite(16);
    let name = |s| rocket.netlist.state_name(s).to_string();
    let secrets: Vec<String> = rocket.secret_regs.iter().map(|&s| name(s)).collect();
    let stderr = run(&rocket.netlist, &name(rocket.observable[0]), &secrets);
    assert!(
        stderr.contains(&secrets[0]) && stderr.contains("16 bits"),
        "{stderr}"
    );

    let secrets: Vec<String> = (1..=4).map(|i| format!("x{i}")).collect();
    let toy = |instr_width| {
        let mut n = Netlist::new("toy");
        n.input("instr", instr_width);
        for s in &secrets {
            let reg = n.state(s.as_str(), 8, Bv::zero(8));
            n.keep_state(reg);
        }
        n
    };
    let stderr = run(&toy(8), "x1", &secrets);
    assert!(
        stderr.contains("instruction input") && stderr.contains("32 bits"),
        "{stderr}"
    );
    let stderr = run(&toy(32), "x1", &secrets[..3]);
    assert!(stderr.contains("secret_reg"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `veloct connect … learn --pairs 0` is refused by the daemon, not by a
/// panic inside it: the client exits non-zero naming `bad-request`, and the
/// daemon goes on answering.
#[test]
fn connect_learn_with_no_pairs_is_a_bad_request_and_the_daemon_survives() {
    use hh_serve::client::Client;
    use hh_serve::server::{Bind, Server, ServerConfig};

    let (server, _) = Server::bind(ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr").to_string();
    let daemon = std::thread::spawn(move || server.run());

    let connect = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_veloct"))
            .args(["connect", &addr])
            .args(args)
            .output()
            .expect("run veloct connect")
    };
    let learn = ["learn", "--name", "rocket", "--builtin", "rocketlite"];
    for flag in [
        ["--pairs", "0"],
        ["--threads", "0"],
        ["--threads", "100000"],
    ] {
        let out = connect(&[&learn[..], &flag[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?}: {stderr}");
        assert!(stderr.contains("bad-request"), "{flag:?}: {stderr}");
        assert!(stderr.contains(&flag[0][2..]), "{flag:?}: {stderr}");
        let status = connect(&["status"]);
        assert!(status.status.success(), "daemon died after {flag:?}");
    }
    Client::connect_tcp(&addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// `veloct serve --threads` is the default of every `learn` frame that
/// omits `threads`, and each thread is a spawn: a value the frame field
/// would refuse is refused at startup (once it was taken unchecked, and the
/// first such frame spawned until `EAGAIN` and killed the daemon). The
/// largest value allowed and 0 (all cores) serve such a frame.
#[cfg(unix)]
#[test]
fn serve_threads_flag_is_bounded_like_the_frame_field() {
    use hh_serve::client::Client;
    use hh_serve::json::Json;

    let sock = std::env::temp_dir().join(format!("hh-serve-cli-{}.sock", std::process::id()));
    let serve = |threads: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_veloct"));
        cmd.args(["serve", "--socket"]).arg(&sock);
        cmd.args(["--threads", threads]);
        cmd
    };

    for threads in ["257", "1000000"] {
        let out = serve(threads).output().expect("run veloct serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {stderr}");
        assert!(stderr.contains("--threads must be in 0..=256"), "{stderr}");
        assert!(stderr.contains("usage: veloct serve"), "{stderr}");
    }

    for threads in ["256", "0"] {
        let _ = std::fs::remove_file(&sock);
        let mut daemon = serve(threads)
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn veloct serve");
        let mut client = (0..200).find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Client::connect_unix(&sock).ok()
        });
        let client = client.as_mut().expect("daemon listens");
        let design = Json::obj(vec![
            ("name", Json::Str("rocket".to_string())),
            ("builtin", Json::Str("rocketlite".to_string())),
        ]);
        let fields = vec![
            ("design", design),
            ("safe", Json::Str("alu".to_string())),
            ("pairs", Json::Int(1)),
        ];
        let resp = client.request("learn", fields).expect("learn served");
        assert_eq!(resp.get("result").unwrap().as_str(), Some("proved"));
        client.shutdown().expect("shutdown");
        assert!(daemon.wait().expect("daemon exits").success());
    }
}
