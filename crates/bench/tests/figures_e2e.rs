//! The measured figures end to end through the command line: `repro
//! fig2`, `fig3`, `fig4` and `fig7` run at the smallest scale with one
//! repetition, exit 0 and print their figure's heading.

use std::process::{Command, Stdio};

#[test]
fn measured_figures_render() {
    let figures = [
        ("fig2", "## Figure 2 — dominant lexical components"),
        ("fig3", "## Figure 3 — slowdown of colstore-5.1"),
        ("fig4", "## Figure 4 — query differential"),
        ("fig7", "## Figure 7 — experiment history"),
    ];
    for (fig, heading) in figures {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(fig)
            .env("SQALPEL_SF", "0.001")
            .env("SQALPEL_REPS", "1")
            .stdin(Stdio::null())
            .output()
            .expect("run repro");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{fig}: {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(heading), "{fig}:\n{stdout}");
    }
}
