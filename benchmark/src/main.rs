//! `joinmi_benchmark`: see `benchmark/README.md`; run through `run.sh`.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::ExitCode::from(joinmi_benchmark::cli::main(&args) as u8)
}
