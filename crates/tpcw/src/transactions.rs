//! The 14 TPC-W transaction types (the paper's Table 3) and their resource
//! profiles.
//!
//! A *client transaction* bundles all processing that delivers one web page:
//! front-server (application) CPU work interleaved with a type-dependent
//! number of synchronous database queries (Section 3.3: "the Home transaction
//! has two database queries in maximum and one in minimum ... the Best Seller
//! transaction always has two outbound database queries"). Demands below are
//! calibrated so the simulated testbed reproduces the paper's saturation
//! ordering (browsing ≈ 75 EBs, shopping ≈ 100, ordering ≈ 150 at
//! `Z = 0.5 s`), not the authors' absolute hardware numbers.

use serde::{Deserialize, Serialize};

/// Transaction class (the two columns of the paper's Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxClass {
    /// Read-mostly page views.
    Browsing,
    /// Cart/checkout/administration interactions.
    Ordering,
}

/// The 14 TPC-W transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(
    missing_docs,
    reason = "the variant names are the TPC-W specification's"
)]
pub enum TxType {
    Home,
    NewProducts,
    BestSellers,
    ProductDetail,
    SearchRequest,
    ExecuteSearch,
    ShoppingCart,
    CustomerRegistration,
    BuyRequest,
    BuyConfirm,
    OrderInquiry,
    OrderDisplay,
    AdminRequest,
    AdminConfirm,
}

/// All transaction types in canonical order.
pub const ALL_TYPES: [TxType; 14] = [
    TxType::Home,
    TxType::NewProducts,
    TxType::BestSellers,
    TxType::ProductDetail,
    TxType::SearchRequest,
    TxType::ExecuteSearch,
    TxType::ShoppingCart,
    TxType::CustomerRegistration,
    TxType::BuyRequest,
    TxType::BuyConfirm,
    TxType::OrderInquiry,
    TxType::OrderDisplay,
    TxType::AdminRequest,
    TxType::AdminConfirm,
];

impl TxType {
    /// Index of this type in [`ALL_TYPES`] (stable across the workspace).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn index(self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "ALL_TYPES enumerates every variant, so position always finds self"
        )]
        ALL_TYPES
            .iter()
            .position(|&t| t == self)
            .expect("ALL_TYPES is exhaustive")
    }

    /// Browsing/Ordering classification (the paper's Table 3).
    pub fn class(self) -> TxClass {
        match self {
            TxType::Home
            | TxType::NewProducts
            | TxType::BestSellers
            | TxType::ProductDetail
            | TxType::SearchRequest
            | TxType::ExecuteSearch => TxClass::Browsing,
            _ => TxClass::Ordering,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TxType::Home => "Home",
            TxType::NewProducts => "New Products",
            TxType::BestSellers => "Best Sellers",
            TxType::ProductDetail => "Product Detail",
            TxType::SearchRequest => "Search Request",
            TxType::ExecuteSearch => "Execute Search",
            TxType::ShoppingCart => "Shopping Cart",
            TxType::CustomerRegistration => "Customer Registration",
            TxType::BuyRequest => "Buy Request",
            TxType::BuyConfirm => "Buy Confirm",
            TxType::OrderInquiry => "Order Inquiry",
            TxType::OrderDisplay => "Order Display",
            TxType::AdminRequest => "Admin Request",
            TxType::AdminConfirm => "Admin Confirm",
        }
    }

    /// Mean front-server (application tier) CPU demand per transaction,
    /// in seconds.
    pub fn front_demand(self) -> f64 {
        match self {
            TxType::Home => 0.0052,
            TxType::NewProducts => 0.0058,
            TxType::BestSellers => 0.0050,
            TxType::ProductDetail => 0.0046,
            TxType::SearchRequest => 0.0042,
            TxType::ExecuteSearch => 0.0075,
            TxType::ShoppingCart => 0.0036,
            TxType::CustomerRegistration => 0.0028,
            TxType::BuyRequest => 0.0034,
            TxType::BuyConfirm => 0.0038,
            TxType::OrderInquiry => 0.0028,
            TxType::OrderDisplay => 0.0032,
            TxType::AdminRequest => 0.0030,
            TxType::AdminConfirm => 0.0036,
        }
    }

    /// Number of outbound database queries: `(min, max)` per transaction
    /// (uniformly chosen within the range, per Section 3.3's description).
    pub fn db_query_range(self) -> (u32, u32) {
        match self {
            TxType::Home => (1, 2),
            TxType::NewProducts => (2, 2),
            TxType::BestSellers => (2, 2),
            TxType::ProductDetail => (1, 1),
            TxType::SearchRequest => (1, 1),
            TxType::ExecuteSearch => (2, 2),
            TxType::ShoppingCart => (2, 2),
            TxType::CustomerRegistration => (1, 1),
            TxType::BuyRequest => (2, 2),
            TxType::BuyConfirm => (3, 3),
            TxType::OrderInquiry => (1, 1),
            TxType::OrderDisplay => (2, 2),
            TxType::AdminRequest => (1, 1),
            TxType::AdminConfirm => (2, 2),
        }
    }

    /// Mean database CPU demand per query, in seconds (uncontended).
    pub fn db_query_demand(self) -> f64 {
        match self {
            TxType::Home => 0.0008,
            TxType::NewProducts => 0.0012,
            TxType::BestSellers => 0.0080,
            TxType::ProductDetail => 0.0008,
            TxType::SearchRequest => 0.0007,
            TxType::ExecuteSearch => 0.0012,
            TxType::ShoppingCart => 0.0008,
            TxType::CustomerRegistration => 0.0005,
            TxType::BuyRequest => 0.0012,
            TxType::BuyConfirm => 0.0010,
            TxType::OrderInquiry => 0.0008,
            TxType::OrderDisplay => 0.0010,
            TxType::AdminRequest => 0.0008,
            TxType::AdminConfirm => 0.0012,
        }
    }

    /// Whether this type touches the shared "inventory" resource whose
    /// contention episodes the paper traces to Best Seller and Home
    /// transactions (Figures 7 and 8).
    pub fn uses_shared_table(self) -> bool {
        matches!(self, TxType::BestSellers | TxType::Home)
    }

    /// Mean total database demand per transaction (expected query count ×
    /// per-query demand), uncontended.
    pub fn db_demand(self) -> f64 {
        let (lo, hi) = self.db_query_range();
        let mean_queries = (lo + hi) as f64 / 2.0;
        mean_queries * self.db_query_demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_types_with_stable_indices() {
        assert_eq!(ALL_TYPES.len(), 14);
        for (i, t) in ALL_TYPES.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn class_split_matches_table_3() {
        let browsing: Vec<_> = ALL_TYPES
            .iter()
            .filter(|t| t.class() == TxClass::Browsing)
            .collect();
        let ordering: Vec<_> = ALL_TYPES
            .iter()
            .filter(|t| t.class() == TxClass::Ordering)
            .collect();
        assert_eq!(browsing.len(), 6);
        assert_eq!(ordering.len(), 8);
    }

    #[test]
    fn best_sellers_always_two_queries() {
        assert_eq!(TxType::BestSellers.db_query_range(), (2, 2));
    }

    #[test]
    fn home_has_one_or_two_queries() {
        assert_eq!(TxType::Home.db_query_range(), (1, 2));
    }

    #[test]
    fn best_sellers_is_heaviest_db_type() {
        for t in ALL_TYPES {
            if t != TxType::BestSellers {
                assert!(
                    t.db_query_demand() < TxType::BestSellers.db_query_demand(),
                    "{} should be lighter than Best Sellers",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn shared_table_types_are_best_sellers_and_home() {
        let shared: Vec<_> = ALL_TYPES.iter().filter(|t| t.uses_shared_table()).collect();
        assert_eq!(shared.len(), 2);
        assert!(shared.contains(&&TxType::BestSellers));
        assert!(shared.contains(&&TxType::Home));
    }

    #[test]
    fn demands_are_positive_and_reasonable() {
        for t in ALL_TYPES {
            assert!(
                t.front_demand() > 0.0 && t.front_demand() < 0.1,
                "{}",
                t.name()
            );
            assert!(
                t.db_query_demand() > 0.0 && t.db_query_demand() < 0.1,
                "{}",
                t.name()
            );
            let (lo, hi) = t.db_query_range();
            assert!(lo >= 1 && lo <= hi && hi <= 5, "{}", t.name());
        }
    }

    #[test]
    fn db_demand_combines_queries() {
        // Home: 1.5 queries x 0.8 ms = 1.2 ms.
        assert!((TxType::Home.db_demand() - 0.0012).abs() < 1e-12);
        // Best Sellers: 2 x 8 ms = 16 ms.
        assert!((TxType::BestSellers.db_demand() - 0.016).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_TYPES.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }
}
