//! Object archives: the output of one full kernel build.
//!
//! `ksplice-create` performs two kernel builds — original source (*pre*)
//! and patched source (*post*) — and compares the resulting object files
//! (paper §3.2, Figure 1). An [`ObjectSet`] is what one such build
//! produces: a deterministic, name-keyed collection of relocatable
//! objects, one per compilation unit.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::model::Object;

/// A build's worth of object files, keyed by compilation-unit name.
///
/// Iteration order is the sorted unit name order (a `BTreeMap`), so
/// diffs are deterministic. A set shares its objects: a build-cache hit
/// and every clone of the set hold the same `Arc<Object>`, and the set
/// gives out only `&Object`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectSet {
    objects: BTreeMap<String, Arc<Object>>,
}

impl ObjectSet {
    /// Creates an empty set.
    pub fn new() -> ObjectSet {
        ObjectSet::default()
    }

    /// Inserts an object, owned or shared, under its own
    /// compilation-unit name, replacing any previous object of the same
    /// name.
    pub fn insert(&mut self, object: impl Into<Arc<Object>>) {
        let object = object.into();
        self.objects.insert(object.name.clone(), object);
    }

    /// Looks up a compilation unit by name.
    pub fn get(&self, name: &str) -> Option<&Object> {
        self.objects.get(name).map(Arc::as_ref)
    }

    /// Number of compilation units.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the set holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates compilation units in deterministic (sorted-name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Object)> {
        self.objects.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }
}

impl FromIterator<Object> for ObjectSet {
    fn from_iter<T: IntoIterator<Item = Object>>(iter: T) -> ObjectSet {
        let mut set = ObjectSet::new();
        for o in iter {
            set.insert(o);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Section, SectionFlags};

    fn obj(name: &str, byte: u8) -> Object {
        let mut o = Object::new(name);
        o.add_section(Section::progbits(
            ".text.f",
            SectionFlags::text(),
            vec![byte],
        ));
        o
    }

    #[test]
    fn iter_is_sorted_by_name() {
        let set: ObjectSet = [obj("b.kc", 1), obj("a.kc", 2)].into_iter().collect();
        let names: Vec<&str> = set.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.kc", "b.kc"]);
    }
}
