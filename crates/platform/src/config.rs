//! Platform configuration: the JSON-file representation of a platform model
//! plus runtime parameters (worker count, path policies, worker home places).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::graph::PlaceGraph;
use crate::json::Json;
use crate::path::PathPolicy;
use crate::place::{Place, PlaceId, PlaceKind};

/// A complete, validated platform configuration.
///
/// This is what `hiper` loads at initialization (paper §II-A): the place
/// graph, the number of persistent worker threads to create, each worker's
/// *home* place (the place `async` spawns to and pop/steal paths start from),
/// and the path policies used to generate pop and steal paths.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Configuration name (diagnostics only).
    pub name: String,
    /// Number of persistent worker threads (paper §II-B1). Generally equals
    /// the number of management cores.
    pub workers: usize,
    /// The place graph.
    pub graph: PlaceGraph,
    /// Home place of each worker; length == `workers`.
    pub worker_homes: Vec<PlaceId>,
    /// Policy generating each worker's pop path.
    pub pop_policy: PathPolicy,
    /// Policy generating each worker's steal path.
    pub steal_policy: PathPolicy,
}

/// Error produced when loading or validating a configuration.
#[derive(Debug)]
pub enum ConfigError {
    /// Underlying JSON was malformed.
    Json(crate::json::ParseError),
    /// The document was well-formed JSON but not a valid platform config.
    Invalid(String),
    /// I/O failure reading the file.
    Io(std::io::Error),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Json(e) => write!(f, "{}", e),
            ConfigError::Invalid(msg) => write!(f, "invalid platform config: {}", msg),
            ConfigError::Io(e) => write!(f, "i/o error: {}", e),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<crate::json::ParseError> for ConfigError {
    fn from(e: crate::json::ParseError) -> Self {
        ConfigError::Json(e)
    }
}

fn invalid(msg: impl Into<String>) -> ConfigError {
    ConfigError::Invalid(msg.into())
}

impl PlatformConfig {
    /// Builds a config from parts and validates it.
    pub fn new(
        name: impl Into<String>,
        workers: usize,
        graph: PlaceGraph,
        worker_homes: Vec<PlaceId>,
        pop_policy: PathPolicy,
        steal_policy: PathPolicy,
    ) -> Result<PlatformConfig, ConfigError> {
        let cfg = PlatformConfig {
            name: name.into(),
            workers,
            graph,
            worker_homes,
            pop_policy,
            steal_policy,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(invalid("worker count must be at least 1"));
        }
        if self.graph.is_empty() {
            return Err(invalid("platform model must contain at least one place"));
        }
        if self.worker_homes.len() != self.workers {
            return Err(invalid(format!(
                "worker_homes has {} entries for {} workers",
                self.worker_homes.len(),
                self.workers
            )));
        }
        for (w, home) in self.worker_homes.iter().enumerate() {
            if home.index() >= self.graph.len() {
                return Err(invalid(format!(
                    "worker {} home {} is out of range",
                    w, home
                )));
            }
        }
        let mut names = std::collections::HashSet::new();
        for p in self.graph.places() {
            if !names.insert(p.name.as_str()) {
                return Err(invalid(format!("duplicate place name '{}'", p.name)));
            }
        }
        Ok(())
    }

    /// Parses a configuration from a JSON document.
    ///
    /// Schema (see `configs/` for examples):
    /// ```json
    /// {
    ///   "name": "titan-node",
    ///   "workers": 16,
    ///   "pop_policy": "home_only",
    ///   "steal_policy": "hierarchical",
    ///   "places": [
    ///     {"id": 0, "kind": "sysmem", "name": "sysmem",
    ///      "attrs": {"bytes": 32e9}}
    ///   ],
    ///   "edges": [[0, 1]],
    ///   "worker_homes": [0, 0]
    /// }
    /// ```
    /// `worker_homes` is optional; the default homes every worker at the
    /// first `sysmem` place (or place 0 if none exists).
    pub fn from_json(doc: &str) -> Result<PlatformConfig, ConfigError> {
        let root = Json::parse(doc)?;
        let obj = root
            .as_object()
            .ok_or_else(|| invalid("top level must be an object"))?;

        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("unnamed")
            .to_string();
        let workers = obj
            .get("workers")
            .and_then(Json::as_usize)
            .ok_or_else(|| invalid("missing or non-integer 'workers'"))?;

        let mut graph = PlaceGraph::new();
        let places = obj
            .get("places")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("missing 'places' array"))?;
        for (i, pj) in places.iter().enumerate() {
            let po = pj
                .as_object()
                .ok_or_else(|| invalid(format!("place {} is not an object", i)))?;
            let id = po
                .get("id")
                .and_then(Json::as_usize)
                .ok_or_else(|| invalid(format!("place {} missing integer 'id'", i)))?;
            if id != i {
                return Err(invalid(format!(
                    "place ids must be dense and ordered (index {} has id {})",
                    i, id
                )));
            }
            let kind = po
                .get("kind")
                .and_then(Json::as_str)
                .map(PlaceKind::from_str_lossy)
                .ok_or_else(|| invalid(format!("place {} missing 'kind'", i)))?;
            let pname = po
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("{}{}", kind.as_str(), i));
            let mut place = Place::new(PlaceId(i as u32), kind, pname);
            if let Some(attrs) = po.get("attrs").and_then(Json::as_object) {
                for (k, v) in attrs {
                    let n = v
                        .as_f64()
                        .ok_or_else(|| invalid(format!("attr '{}' must be numeric", k)))?;
                    place.attrs.insert(k.clone(), n);
                }
            }
            graph.push_place(place);
        }

        if let Some(edges) = obj.get("edges").and_then(Json::as_array) {
            for (i, ej) in edges.iter().enumerate() {
                let pair = ej
                    .as_array()
                    .ok_or_else(|| invalid(format!("edge {} is not an array", i)))?;
                if pair.len() != 2 {
                    return Err(invalid(format!("edge {} must have exactly 2 endpoints", i)));
                }
                let a = pair[0]
                    .as_usize()
                    .ok_or_else(|| invalid(format!("edge {} endpoint 0 invalid", i)))?;
                let b = pair[1]
                    .as_usize()
                    .ok_or_else(|| invalid(format!("edge {} endpoint 1 invalid", i)))?;
                if a >= graph.len() || b >= graph.len() {
                    return Err(invalid(format!("edge {} references unknown place", i)));
                }
                graph.add_edge(PlaceId(a as u32), PlaceId(b as u32));
            }
        }

        let default_home = graph
            .first_of_kind(&PlaceKind::SystemMemory)
            .unwrap_or(PlaceId(0));
        let worker_homes = match obj.get("worker_homes").and_then(Json::as_array) {
            Some(homes) => homes
                .iter()
                .enumerate()
                .map(|(w, h)| {
                    h.as_usize()
                        .filter(|&h| h < graph.len())
                        .map(|h| PlaceId(h as u32))
                        .ok_or_else(|| invalid(format!("worker {} home invalid", w)))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![default_home; workers],
        };

        let pop_policy = match obj.get("pop_policy").and_then(Json::as_str) {
            Some(s) => PathPolicy::from_str(s).ok_or_else(|| invalid("unknown pop_policy"))?,
            None => PathPolicy::HomeFirst,
        };
        let steal_policy = match obj.get("steal_policy").and_then(Json::as_str) {
            Some(s) => PathPolicy::from_str(s).ok_or_else(|| invalid("unknown steal_policy"))?,
            None => PathPolicy::Hierarchical,
        };

        PlatformConfig::new(name, workers, graph, worker_homes, pop_policy, steal_policy)
    }

    /// Loads a configuration from a file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<PlatformConfig, ConfigError> {
        let doc = std::fs::read_to_string(path).map_err(ConfigError::Io)?;
        PlatformConfig::from_json(&doc)
    }

    /// Serializes back to the JSON schema accepted by
    /// [`from_json`](Self::from_json).
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("name".to_string(), Json::from(self.name.as_str()));
        root.insert("workers".to_string(), Json::from(self.workers));
        root.insert(
            "pop_policy".to_string(),
            Json::from(self.pop_policy.as_str()),
        );
        root.insert(
            "steal_policy".to_string(),
            Json::from(self.steal_policy.as_str()),
        );
        let places: Vec<Json> = self
            .graph
            .places()
            .iter()
            .map(|p| {
                let mut po = BTreeMap::new();
                po.insert("id".to_string(), Json::from(p.id.index()));
                po.insert("kind".to_string(), Json::from(p.kind.as_str()));
                po.insert("name".to_string(), Json::from(p.name.as_str()));
                if !p.attrs.is_empty() {
                    let attrs: BTreeMap<String, Json> = p
                        .attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Number(*v)))
                        .collect();
                    po.insert("attrs".to_string(), Json::Object(attrs));
                }
                Json::Object(po)
            })
            .collect();
        root.insert("places".to_string(), Json::Array(places));
        let edges: Vec<Json> = self
            .graph
            .edges()
            .iter()
            .map(|(a, b)| Json::Array(vec![Json::from(a.index()), Json::from(b.index())]))
            .collect();
        root.insert("edges".to_string(), Json::Array(edges));
        let homes: Vec<Json> = self
            .worker_homes
            .iter()
            .map(|h| Json::from(h.index()))
            .collect();
        root.insert("worker_homes".to_string(), Json::Array(homes));
        Json::Object(root).pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "test-node",
        "workers": 4,
        "places": [
            {"id": 0, "kind": "sysmem", "name": "mem", "attrs": {"bytes": 64000000000}},
            {"id": 1, "kind": "gpu", "name": "gpu0"},
            {"id": 2, "kind": "interconnect", "name": "net"}
        ],
        "edges": [[0, 1], [0, 2]],
        "worker_homes": [0, 0, 0, 0],
        "pop_policy": "home_first",
        "steal_policy": "hierarchical"
    }"#;

    #[test]
    fn parse_full_document() {
        let cfg = PlatformConfig::from_json(DOC).unwrap();
        assert_eq!(cfg.name, "test-node");
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.graph.len(), 3);
        assert!(cfg.graph.has_edge(PlaceId(0), PlaceId(1)));
        assert_eq!(cfg.graph.place(PlaceId(0)).attr("bytes"), Some(64e9));
        assert_eq!(cfg.worker_homes, vec![PlaceId(0); 4]);
    }

    #[test]
    fn default_homes_and_policies() {
        let doc = r#"{"workers": 2, "places": [
            {"id": 0, "kind": "gpu", "name": "g"},
            {"id": 1, "kind": "sysmem", "name": "m"}
        ]}"#;
        let cfg = PlatformConfig::from_json(doc).unwrap();
        // Default home is the first sysmem place, not place 0.
        assert_eq!(cfg.worker_homes, vec![PlaceId(1); 2]);
        assert_eq!(cfg.pop_policy, PathPolicy::HomeFirst);
        assert_eq!(cfg.steal_policy, PathPolicy::Hierarchical);
    }

    #[test]
    fn json_roundtrip_preserves_config() {
        let cfg = PlatformConfig::from_json(DOC).unwrap();
        let doc2 = cfg.to_json();
        let cfg2 = PlatformConfig::from_json(&doc2).unwrap();
        assert_eq!(cfg2.name, cfg.name);
        assert_eq!(cfg2.workers, cfg.workers);
        assert_eq!(cfg2.graph.len(), cfg.graph.len());
        assert_eq!(cfg2.graph.edges(), cfg.graph.edges());
        assert_eq!(cfg2.worker_homes, cfg.worker_homes);
        assert_eq!(cfg2.pop_policy, cfg.pop_policy);
        for (p, q) in cfg.graph.places().iter().zip(cfg2.graph.places()) {
            assert_eq!(p, q);
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        // Zero workers.
        assert!(PlatformConfig::from_json(
            r#"{"workers": 0, "places": [{"id":0,"kind":"sysmem","name":"m"}]}"#
        )
        .is_err());
        // Non-dense ids.
        assert!(PlatformConfig::from_json(
            r#"{"workers": 1, "places": [{"id":1,"kind":"sysmem","name":"m"}]}"#
        )
        .is_err());
        // Edge out of range.
        assert!(PlatformConfig::from_json(
            r#"{"workers": 1, "places": [{"id":0,"kind":"sysmem","name":"m"}], "edges": [[0,5]]}"#
        )
        .is_err());
        // Bad home.
        assert!(PlatformConfig::from_json(
            r#"{"workers": 1, "places": [{"id":0,"kind":"sysmem","name":"m"}], "worker_homes":[9]}"#
        )
        .is_err());
        // Duplicate names.
        assert!(PlatformConfig::from_json(
            r#"{"workers": 1, "places": [{"id":0,"kind":"sysmem","name":"m"},{"id":1,"kind":"gpu","name":"m"}]}"#
        )
        .is_err());
        // No places.
        assert!(PlatformConfig::from_json(r#"{"workers": 1, "places": []}"#).is_err());
        // Wrong home count.
        assert!(PlatformConfig::from_json(
            r#"{"workers": 2, "places": [{"id":0,"kind":"sysmem","name":"m"}], "worker_homes":[0]}"#
        )
        .is_err());
    }

    #[test]
    fn unknown_kind_becomes_custom() {
        let doc = r#"{"workers": 1, "places": [{"id":0,"kind":"fpga","name":"f"}]}"#;
        let cfg = PlatformConfig::from_json(doc).unwrap();
        assert_eq!(
            cfg.graph.place(PlaceId(0)).kind,
            PlaceKind::Custom("fpga".to_string())
        );
    }

    #[test]
    fn file_roundtrip() {
        let cfg = PlatformConfig::from_json(DOC).unwrap();
        let dir = std::env::temp_dir().join("hiper_platform_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        std::fs::write(&path, cfg.to_json()).unwrap();
        let cfg2 = PlatformConfig::from_file(&path).unwrap();
        assert_eq!(cfg2.name, cfg.name);
        assert_eq!(cfg2.graph.len(), cfg.graph.len());
    }
}
