//! The one commit primitive every artifact in the workspace shares:
//! replace a file whole or not at all.

use std::io;
use std::path::{Path, PathBuf};

/// Replace the file at `path` with `bytes` atomically: write them to a
/// sibling temp file ([`temp_sibling`]), then rename it over `path`. A
/// reader — or a process restarted after a kill — sees either the old
/// bytes or the new ones, never a torn mix. Nothing is fsynced, so this
/// holds against a killed process, not against power loss.
pub fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_sibling(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The temp file [`atomic_replace`] stages `path`'s new bytes in:
/// `.NAME.tmp` next to it.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = std::ffi::OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_holds_old_or_new_bytes_and_no_temp_file_remains() {
        let dir = std::env::temp_dir().join("wmtree-bundle-atomic-replace");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("STATE.json");

        atomic_replace(&path, b"old").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");

        // A writer killed before its rename leaves only the staged
        // file behind; the target still holds the old bytes.
        std::fs::write(temp_sibling(&path), b"torn").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");

        atomic_replace(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["STATE.json"], "no temp file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
