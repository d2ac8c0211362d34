//! Binary targets carry no deny list: they may abort and own stdout, as
//! `FileKind::Harness` exempts them from the library-only rules. The
//! workspace-wide bans of `clippy.toml` still apply.

fn main() {
    let n: u32 = "7".parse().unwrap();
    println!("{n}");
    let _ = std::time::Instant::now(); // the wall-clock ban holds in bins
}
