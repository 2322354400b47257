//! Thin shim over [`pels_cli`]: parse, execute, report errors on stderr.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match pels_cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", pels_cli::usage());
            std::process::exit(2);
        }
    };
    let dirs = pels_cli::OutputDirs::from_env();
    if let Err(e) = pels_cli::execute(cmd, &dirs, &mut std::io::stdout()) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
