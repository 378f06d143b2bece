//! `fluidmemctl` as a process: a reader that closes its end of the
//! output pipe early (`fluidmemctl trace | head`) ends the run quietly,
//! with exit status 0 and no panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_pipe_ends_the_run_quietly() {
    // Reading nothing closes the pipe before the first write, so that
    // write fails for certain; reading one line is the `| head` case.
    for lines_read in [0, 1] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fluidmemctl"))
            .args(["trace", "--scenario", "timeline"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("fluidmemctl starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        for _ in 0..lines_read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("one line of output");
            assert!(line.starts_with('['), "a span line: {line:?}");
        }
        drop(stdout);
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("stderr reads");
        let status = child.wait().expect("fluidmemctl exits");
        assert!(!stderr.contains("panicked"), "{lines_read} lines: {stderr}");
        assert!(status.success(), "{lines_read} lines: {status}, {stderr}");
    }
}
