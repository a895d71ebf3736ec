//! Access-method resolution: the one place that decides whether an
//! index-annotated PT node really runs as an index probe.
//!
//! transformPT and generatePT toggle access methods (`Sel` scan vs.
//! index) and join algorithms (nested loop vs. index join), and the cost
//! model picks the winner. A `Sel{Index}` or `EJ{IndexJoin}` whose index,
//! input shape or predicate cannot drive the probe falls back to a
//! filter or a nested loop. Lowering ([`crate::lower`]), the cost model,
//! the static analyzer and the optimizer's move generators all read the
//! decision from here, so a fallback is proposed, priced, bounded and
//! executed as the same operator.

use oorq_query::{CmpOp, Expr, Literal};
use oorq_schema::{Catalog, ClassId};
use oorq_storage::{EntityId, EntitySource, IndexId, IndexKindDesc, PhysicalSchema};

use crate::node::{AccessMethod, Pt};

/// A `Sel` that lowers to an index probe (`PhysOp::IndexSelect`).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectProbe<'a> {
    /// The selection index probed.
    pub index: IndexId,
    /// The probed entity (the `Sel` input).
    pub entity: EntityId,
    /// Class of the probed entity's extension.
    pub class: ClassId,
    /// Binding variable of the probed entity.
    pub var: &'a str,
    /// Name of the indexed attribute.
    pub attr: &'a str,
    /// The probe key, from the predicate's `var.attr = literal` conjunct.
    pub key: &'a Literal,
    /// Levels of the index B+-tree.
    pub nblevels: u32,
}

/// An `EJ` that lowers to an index join (`PhysOp::IndexJoin`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinProbe<'a> {
    /// The selection index probed.
    pub index: IndexId,
    /// Class of the inner entity's extension.
    pub class: ClassId,
    /// Binding variable of the inner entity.
    pub var: &'a str,
    /// Name of the indexed attribute.
    pub attr: &'a str,
    /// The outer key expression: the other side of the predicate's
    /// `outer = var.attr` conjunct; it never mentions `var`.
    pub outer: &'a Expr,
    /// Levels of the index B+-tree.
    pub nblevels: u32,
}

/// The probe `Sel{pred, input}` runs with `index`, or `None` when it
/// falls back to a filter: the index must be a selection index, the
/// input a class-extension entity, and the predicate must carry a
/// `var.attr = literal` conjunct on the indexed attribute.
pub fn select_probe<'a>(
    catalog: &'a Catalog,
    physical: &PhysicalSchema,
    index: IndexId,
    pred: &'a Expr,
    input: &'a Pt,
) -> Option<SelectProbe<'a>> {
    let (attr, nblevels) = selection_attr(catalog, physical, index)?;
    let (entity, class, var) = class_entity(physical, input)?;
    let key = pred.conjuncts().into_iter().find_map(|c| {
        let (lhs, rhs) = equality(c)?;
        match (lhs, rhs) {
            (path, Expr::Lit(lit)) | (Expr::Lit(lit), path) if is_attr(path, var, attr) => {
                Some(lit)
            }
            _ => None,
        }
    })?;
    Some(SelectProbe {
        index,
        entity,
        class,
        var,
        attr,
        key,
        nblevels,
    })
}

/// The first probe `Sel{pred, input}` could run, over the selection
/// indexes of the predicate's `var.attr = literal` conjuncts in conjunct
/// order; `None` when no index applies.
pub fn find_select_probe<'a>(
    catalog: &'a Catalog,
    physical: &PhysicalSchema,
    pred: &'a Expr,
    input: &'a Pt,
) -> Option<SelectProbe<'a>> {
    candidate_indexes(catalog, physical, pred, input, true)
        .into_iter()
        .find_map(|idx| select_probe(catalog, physical, idx, pred, input))
}

/// The index join `EJ{pred, _, right}` runs with `index`, or `None` when
/// it falls back to a nested loop: the index must be a selection index,
/// the right input a class-extension entity, and the predicate must
/// carry an `outer = var.attr` equality on the indexed attribute whose
/// outer side does not mention `var`.
pub fn join_probe<'a>(
    catalog: &'a Catalog,
    physical: &PhysicalSchema,
    index: IndexId,
    pred: &'a Expr,
    right: &'a Pt,
) -> Option<JoinProbe<'a>> {
    let (attr, nblevels) = selection_attr(catalog, physical, index)?;
    let (_, class, var) = class_entity(physical, right)?;
    let outer = pred.conjuncts().into_iter().find_map(|c| {
        let (lhs, rhs) = equality(c)?;
        [(rhs, lhs), (lhs, rhs)]
            .into_iter()
            .find(|(inner, outer)| is_attr(inner, var, attr) && !outer.vars().contains(var))
            .map(|(_, outer)| outer)
    })?;
    Some(JoinProbe {
        index,
        class,
        var,
        attr,
        outer,
        nblevels,
    })
}

/// Every index join `EJ{pred, _, right}` could run, one per distinct
/// selection index on an attribute the predicate equates, in conjunct
/// order.
pub fn join_probes<'a>(
    catalog: &'a Catalog,
    physical: &PhysicalSchema,
    pred: &'a Expr,
    right: &'a Pt,
) -> Vec<JoinProbe<'a>> {
    candidate_indexes(catalog, physical, pred, right, false)
        .into_iter()
        .filter_map(|idx| join_probe(catalog, physical, idx, pred, right))
        .collect()
}

/// True when `pt` lowers to an operator `PhysOp::rescannable` accepts
/// (serial lowering): a leaf scan under filters and projections, which a
/// nested-loop join honestly re-opens per outer row. Anything else — an
/// index probe included — becomes a materialize-once breaker as a
/// nested-loop inner.
pub fn rescannable(catalog: &Catalog, physical: &PhysicalSchema, pt: &Pt) -> bool {
    match pt {
        Pt::Entity { .. } | Pt::Temp { .. } => true,
        Pt::Sel {
            pred,
            method,
            input,
        } => {
            let probe = match method {
                AccessMethod::Index(idx) => select_probe(catalog, physical, *idx, pred, input),
                AccessMethod::Scan => None,
            };
            probe.is_none() && rescannable(catalog, physical, input)
        }
        Pt::Proj { input, .. } => rescannable(catalog, physical, input),
        _ => false,
    }
}

/// Name of a selection index's attribute and the index depth.
fn selection_attr<'a>(
    catalog: &'a Catalog,
    physical: &PhysicalSchema,
    index: IndexId,
) -> Option<(&'a str, u32)> {
    let desc = physical.indexes().get(index.0 as usize)?;
    let IndexKindDesc::Selection { class, attr } = desc.kind else {
        return None;
    };
    Some((&catalog.attribute(class, attr).name, desc.stats.nblevels))
}

/// The entity, class and variable of a class-extension entity leaf.
fn class_entity<'a>(physical: &PhysicalSchema, pt: &'a Pt) -> Option<(EntityId, ClassId, &'a str)> {
    let Pt::Entity { id, var } = pt else {
        return None;
    };
    let EntitySource::Class(class) = physical.entity(*id).source else {
        return None;
    };
    Some((*id, class, var))
}

/// The operands of an equality conjunct.
fn equality(c: &Expr) -> Option<(&Expr, &Expr)> {
    match c {
        Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } => Some((lhs, rhs)),
        _ => None,
    }
}

/// True when `e` is the single-step path `var.attr`.
fn is_attr(e: &Expr, var: &str, attr: &str) -> bool {
    matches!(e, Expr::Path { base, steps } if base == var && steps.len() == 1 && steps[0] == attr)
}

/// Distinct selection indexes on the attributes of `var.attr` operands
/// of the predicate's equality conjuncts (against a literal only when
/// `literal_only`), in conjunct order; `var` is the entity leaf's.
fn candidate_indexes(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    pred: &Expr,
    leaf: &Pt,
    literal_only: bool,
) -> Vec<IndexId> {
    let Some((_, class, var)) = class_entity(physical, leaf) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (lhs, rhs) in pred.conjuncts().into_iter().filter_map(equality) {
        for (side, other) in [(lhs, rhs), (rhs, lhs)] {
            let Expr::Path { base, steps } = side else {
                continue;
            };
            if base != var || steps.len() != 1 || (literal_only && !matches!(other, Expr::Lit(_))) {
                continue;
            }
            let index = catalog
                .attr(class, &steps[0])
                .and_then(|(aid, _)| physical.selection_index(class, aid));
            if let Some(desc) = index {
                if !out.contains(&desc.id) {
                    out.push(desc.id);
                }
            }
        }
    }
    out
}
