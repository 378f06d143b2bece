//! `fluidmemctl`: the operator CLI for the FluidMem reproduction.
//!
//! See `fluidmem::cli` for the commands; run `fluidmemctl help`.

use std::io::{self, ErrorKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match fluidmem::cli::parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    // A reader that closes the pipe early (`| head`) ends the run quietly.
    match fluidmem::cli::execute(command, &mut io::stdout().lock()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write output: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}
