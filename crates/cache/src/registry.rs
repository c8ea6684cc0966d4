//! The open strategy registry: name → [`StrategyFactory`] resolution.
//!
//! [`StrategyRegistry`] is how out-of-tree cache strategies become
//! first-class citizens of the simulator without touching this crate's
//! [`StrategySpec`] enum: implement
//! [`StrategyFactory`] for your policy, register
//! it under a name, and select it by that name from the `Simulation`
//! builder or a scenario spec file. The built-in strategies — the
//! paper's five plus the literature four — are pre-registered by
//! [`StrategyRegistry::builtin`] under their compact names (`no-cache`,
//! `lru`, `lfu`, `global-lfu`, `oracle`, `arc`, `tlru`,
//! `prior-storing`, `delayed-lfu`), and [`StrategyRegistry::resolve`]
//! additionally understands the full parameterized
//! [`StrategySpec::parse`] grammar (`lfu:3d`, `oracle:36h`,
//! `delayed-lfu:3d:200ms`, ...), so registration is only ever needed
//! for custom policies.
//!
//! # Process-wide plugins
//!
//! Binaries that resolve strategies from *spec files* (the
//! `cablevod-scenario` runner) cannot thread a hand-built registry to
//! every parse site; they construct theirs with
//! [`StrategyRegistry::with_plugins`], which applies every hook
//! previously installed by [`register_plugin`] — the seam through which
//! out-of-tree crates make their strategies nameable from `.scn` files
//! without touching the runner.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cablevod_cache::{LruFactory, StrategyRegistry};
//!
//! let mut registry = StrategyRegistry::builtin();
//! // An out-of-tree admission policy registers its own factory here;
//! // the built-in LRU factory stands in for the example.
//! registry.register("my-admission-policy", Arc::new(LruFactory));
//! assert!(registry.resolve("my-admission-policy").is_ok());
//! assert!(registry.resolve("lfu:3d").is_ok()); // spec grammar fallback
//! assert!(registry.resolve("prior-storing").is_ok()); // built-in
//! assert!(registry.resolve("no-such-policy").is_err());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::CacheError;
use crate::strategy::{StrategyFactory, StrategySpec};

/// A process-wide registration hook (see [`register_plugin`]).
type PluginHook = Box<dyn Fn(&mut StrategyRegistry) + Send + Sync>;

/// Hooks installed by [`register_plugin`], applied in installation order
/// by [`StrategyRegistry::with_plugins`].
static PLUGINS: OnceLock<Mutex<Vec<PluginHook>>> = OnceLock::new();

/// Installs a process-wide plugin hook: every subsequent
/// [`StrategyRegistry::with_plugins`] call invokes `hook` (in
/// installation order, after the built-ins are registered) so the hook
/// can [`register`](StrategyRegistry::register) its factories. This is
/// how out-of-tree strategies become nameable from scenario spec files
/// without the runner knowing their types.
pub fn register_plugin(hook: impl Fn(&mut StrategyRegistry) + Send + Sync + 'static) {
    PLUGINS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("plugin hook list poisoned")
        .push(Box::new(hook));
}

/// A by-name collection of [`StrategyFactory`]s (see the module docs).
#[derive(Clone)]
pub struct StrategyRegistry {
    factories: BTreeMap<String, Arc<dyn StrategyFactory>>,
}

impl StrategyRegistry {
    /// A registry with no entries (resolution still falls back to the
    /// [`StrategySpec::parse`] grammar).
    pub fn empty() -> Self {
        StrategyRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// A registry holding the built-in strategies under their compact
    /// names with default parameters: the paper's `no-cache`, `lru`,
    /// `lfu` (7-day history), `global-lfu` (7-day history, 30-minute
    /// lag), and `oracle` (3-day look-ahead), plus the literature
    /// strategies `arc`, `tlru` (1-day TTU), `prior-storing` (1-day
    /// horizon), and `delayed-lfu` (7-day history, 200 ms latency).
    pub fn builtin() -> Self {
        let mut registry = StrategyRegistry::empty();
        for name in [
            "no-cache",
            "lru",
            "lfu",
            "global-lfu",
            "oracle",
            "arc",
            "tlru",
            "prior-storing",
            "delayed-lfu",
        ] {
            let spec = StrategySpec::parse(name).expect("built-in names parse");
            registry.register(name, spec.factory());
        }
        registry
    }

    /// [`builtin`](StrategyRegistry::builtin) plus every hook installed
    /// by [`register_plugin`], applied in installation order (later
    /// hooks shadow earlier registrations of the same name).
    pub fn with_plugins() -> Self {
        let mut registry = StrategyRegistry::builtin();
        if let Some(hooks) = PLUGINS.get() {
            for hook in hooks.lock().expect("plugin hook list poisoned").iter() {
                hook(&mut registry);
            }
        }
        registry
    }

    /// Registers `factory` under `name`, returning the factory it
    /// replaced (last registration wins).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: Arc<dyn StrategyFactory>,
    ) -> Option<Arc<dyn StrategyFactory>> {
        self.factories.insert(name.into(), factory)
    }

    /// The factory registered under exactly `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<dyn StrategyFactory>> {
        self.factories.get(name).cloned()
    }

    /// Resolves `name` to a factory: an exact registry entry first, then
    /// the [`StrategySpec::parse`] grammar (so `lfu:3d` works without
    /// registration).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownStrategy`] when neither resolves.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn StrategyFactory>, CacheError> {
        if let Some(factory) = self.get(name) {
            return Ok(factory);
        }
        StrategySpec::parse(name).map(|spec| spec.factory())
    }

    /// The registered names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.factories.keys().map(String::as_str)
    }
}

impl Default for StrategyRegistry {
    fn default() -> Self {
        StrategyRegistry::builtin()
    }
}

impl fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{LruFactory, StrategyContext};
    use cablevod_hfc::ids::NeighborhoodId;

    #[test]
    fn builtin_names_resolve_and_build() {
        let registry = StrategyRegistry::builtin();
        for (name, label) in [
            ("no-cache", "No cache"),
            ("lru", "LRU"),
            ("lfu", "LFU"),
            ("global-lfu", "Global LFU"),
            ("oracle", "Oracle"),
            ("arc", "ARC"),
            ("tlru", "TLRU"),
            ("prior-storing", "Prior storing"),
            ("delayed-lfu", "Delayed LFU"),
        ] {
            let factory = registry.resolve(name).expect("built-in resolves");
            assert_eq!(factory.name(), label);
            if !factory.needs_schedule() {
                let strategy = factory
                    .build(StrategyContext {
                        capacity_slots: 10,
                        home: NeighborhoodId::new(0),
                        schedule: None,
                    })
                    .expect("builds");
                assert_eq!(strategy.name(), label);
            }
        }
    }

    #[test]
    fn parameterized_specs_resolve_without_registration() {
        let registry = StrategyRegistry::empty();
        let factory = registry.resolve("lfu:3d").expect("grammar fallback");
        assert_eq!(factory.name(), "LFU");
        let factory = registry
            .resolve("delayed-lfu:3d:200ms")
            .expect("grammar fallback");
        assert_eq!(factory.name(), "Delayed LFU");
        let err = registry.resolve("no-such-policy").unwrap_err();
        assert!(matches!(err, CacheError::UnknownStrategy { .. }));
    }

    #[test]
    fn plugin_hooks_apply_in_installation_order() {
        // Unique names: the hook list is process-global and shared
        // across tests.
        crate::registry::register_plugin(|r| {
            r.register("plugin-order-probe", Arc::new(LruFactory));
        });
        crate::registry::register_plugin(|r| {
            r.register("plugin-order-probe", StrategySpec::default_lfu().factory());
        });
        let registry = StrategyRegistry::with_plugins();
        // Later hooks shadow earlier ones...
        assert_eq!(
            registry
                .resolve("plugin-order-probe")
                .expect("plugin resolves")
                .name(),
            "LFU"
        );
        // ...and the built-ins are still present underneath.
        assert!(registry.resolve("prior-storing").is_ok());
        // Plain builtin() is unaffected by plugins.
        assert!(StrategyRegistry::builtin()
            .get("plugin-order-probe")
            .is_none());
    }

    #[test]
    fn registration_shadows_and_reports_replacement() {
        let mut registry = StrategyRegistry::empty();
        assert!(registry.register("mine", Arc::new(LruFactory)).is_none());
        assert!(registry
            .register("mine", StrategySpec::default_lfu().factory())
            .is_some());
        assert_eq!(registry.resolve("mine").expect("resolves").name(), "LFU");
        assert_eq!(registry.names().collect::<Vec<_>>(), vec!["mine"]);
    }
}
