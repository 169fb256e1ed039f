//! Forest (de)serialization.
//!
//! JSON via serde — human-readable, diffable, and sufficient for the model
//! sizes in this reproduction. Binary device formats live in the `tahoe`
//! crate; this module is for persistence and interchange.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use crate::forest::Forest;

/// Errors from forest persistence.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// Malformed forest file.
    Format(serde_json::Error),
    /// Well-formed JSON describing an invalid forest ([`Forest::validate`]).
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "filesystem error: {e}"),
            IoError::Format(e) => write!(f, "forest format error: {e}"),
            IoError::Invalid(e) => write!(f, "invalid forest: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Format(e)
    }
}

/// Saves a forest as JSON.
///
/// # Errors
///
/// Returns [`IoError`] on filesystem or serialization failure.
pub fn save_forest(forest: &Forest, path: &Path) -> Result<(), IoError> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), forest)?;
    Ok(())
}

/// Loads a forest from JSON and validates it, so a malformed model fails
/// here rather than in a tree walk.
///
/// # Errors
///
/// Returns [`IoError`] on filesystem or deserialization failure, or
/// [`IoError::Invalid`] when the forest fails [`Forest::validate`].
pub fn load_forest(path: &Path) -> Result<Forest, IoError> {
    let file = File::open(path)?;
    let forest: Forest = serde_json::from_reader(BufReader::new(file))?;
    forest.validate().map_err(IoError::Invalid)?;
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::tree::Tree;
    use tahoe_datasets::{ForestKind, Task};

    fn forest() -> Forest {
        let tree = Tree::new(vec![
            Node::Decision {
                attribute: 2,
                threshold: 1.5,
                default_left: false,
                left: 1,
                right: 2,
                left_prob: 0.8,
            },
            Node::Leaf { value: -0.5 },
            Node::Leaf { value: 0.5 },
        ]);
        Forest::new(vec![tree], 3, ForestKind::RandomForest, Task::BinaryClassification, 0.0)
    }

    #[test]
    fn roundtrip_preserves_forest() {
        let dir = std::env::temp_dir().join("tahoe_forest_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forest.json");
        let f = forest();
        save_forest(&f, &path).unwrap();
        let loaded = load_forest(&path).unwrap();
        assert_eq!(f, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_fs_error() {
        let err = load_forest(Path::new("/nonexistent/forest.json")).unwrap_err();
        assert!(matches!(err, IoError::Fs(_)));
        assert!(err.to_string().contains("filesystem"));
    }

    #[test]
    fn load_garbage_is_format_error() {
        let dir = std::env::temp_dir().join("tahoe_forest_io_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"not json at all {{{").unwrap();
        let err = load_forest(&path).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    /// Saves the valid test forest, applies one textual corruption to its
    /// JSON, and loads it back.
    fn load_corrupted(name: &str, from: &str, to: &str) -> Result<Forest, IoError> {
        let dir = std::env::temp_dir().join("tahoe_forest_io_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.json"));
        save_forest(&forest(), &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains(from), "{name}: {from} not in {json}");
        std::fs::write(&path, json.replacen(from, to, 1)).unwrap();
        let loaded = load_forest(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    fn assert_invalid(loaded: Result<Forest, IoError>, message: &str) {
        match loaded {
            Err(IoError::Invalid(e)) => assert!(e.contains(message), "{e}"),
            other => panic!("expected IoError::Invalid({message}), got {other:?}"),
        }
    }

    #[test]
    fn cyclic_tree_is_invalid() {
        let loaded = load_corrupted("cyclic", "\"left\":1", "\"left\":0");
        assert_invalid(loaded, "tree 0: child ids must point forward (node 0)");
    }

    #[test]
    fn out_of_range_child_is_invalid() {
        let loaded = load_corrupted("child99", "\"right\":2", "\"right\":99");
        assert_invalid(loaded, "tree 0: child id out of range (node 0)");
    }

    #[test]
    fn out_of_range_attribute_is_invalid() {
        let loaded = load_corrupted("attr999", "\"attribute\":2", "\"attribute\":999");
        assert_invalid(loaded, "tree 0 references attribute 999 out of range");
    }

    #[test]
    fn left_prob_outside_unit_interval_is_invalid() {
        let loaded = load_corrupted("prob7", "\"left_prob\":0.8", "\"left_prob\":7.0");
        assert_invalid(loaded, "tree 0: left_prob 7 outside [0, 1] (node 0)");
    }

    #[test]
    fn empty_forest_is_invalid() {
        let tree = serde_json::to_string(&forest().trees()[0]).unwrap();
        assert_invalid(load_corrupted("empty", &tree, ""), "a forest needs at least one tree");
    }
}
