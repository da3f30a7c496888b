//! Fixture plumbing shared by the real-binary CLI tests.

use std::path::PathBuf;
use std::process::Output;

/// Scratch directory for one test's fixture files.
pub struct Fixtures {
    dir: PathBuf,
}

impl Fixtures {
    pub fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dbpal_bench_cli_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Fixtures { dir }
    }

    pub fn write(&self, name: &str, contents: &str) -> String {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Fixtures {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}
