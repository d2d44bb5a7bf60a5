//! User mobility.
//!
//! §6.2: "80.6 % of the GUIDs connected from a single AS, 13.4 % from two
//! different ASes, and 6 % from more than two"; "77 % remained within
//! 10 km, and … 23 % were more than 10 km apart". Each peer gets a set of
//! *login sites* (IP, AS, location) and a sampling rule; the simulation
//! draws a site per login, and the analytics recover the mobility mix from
//! the resulting login records.

use crate::asn::AsModel;
use crate::geo::WORLD_COUNTRIES;
use crate::population::PeerSpec;
use netsession_core::geo::haversine_km;
use netsession_core::id::AsNumber;
use netsession_core::rng::DetRng;

/// One place a peer logs in from.
#[derive(Clone, Debug, PartialEq)]
pub struct LoginSite {
    /// Public IP at this site.
    pub ip: u32,
    /// AS index (into the [`AsModel`]).
    pub as_index: usize,
    /// AS number.
    pub asn: AsNumber,
    /// Country index.
    pub country: usize,
    /// City index within the country.
    pub city: usize,
    /// Coordinates.
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
}

/// A peer's mobility plan: its sites and how often it roams.
#[derive(Clone, Debug)]
pub struct MobilityPlan {
    /// Sites; index 0 is home.
    pub sites: Vec<LoginSite>,
    /// Probability a given login happens away from home.
    pub roam_probability: f64,
}

/// Mobility mix parameters, defaults calibrated to §6.2.
#[derive(Clone, Debug)]
pub struct MobilityConfig {
    /// P(exactly two ASes) — paper: 0.134.
    pub two_as: f64,
    /// P(more than two ASes) — paper: 0.06.
    pub more_as: f64,
    /// P(a secondary site is in a different city) given it exists; tuned so
    /// ~23 % of GUIDs exceed 10 km.
    pub secondary_far: f64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            two_as: 0.134,
            more_as: 0.06,
            secondary_far: 0.95,
        }
    }
}

impl MobilityPlan {
    /// Build a plan for `peer`.
    pub fn generate(
        peer: &PeerSpec,
        as_model: &AsModel,
        cfg: &MobilityConfig,
        rng: &mut DetRng,
    ) -> MobilityPlan {
        let home_city = &WORLD_COUNTRIES[peer.country].cities[peer.city];
        let home = LoginSite {
            ip: peer.ip,
            as_index: peer.as_index,
            asn: peer.asn,
            country: peer.country,
            city: peer.city,
            lat: home_city.lat,
            lon: home_city.lon,
        };
        let extra_as = match rng.f64() {
            x if x < cfg.more_as => 2 + rng.index(2),
            x if x < cfg.more_as + cfg.two_as => 1,
            _ => 0,
        };
        let mut sites = vec![home];
        for k in 0..extra_as {
            // Secondary site: a *different* AS in the same country
            // (work/home split), usually in a different city. Bounded
            // redraws avoid collapsing two-AS plans into one AS.
            let mut as_index = as_model.pick_for_country(peer.country, rng);
            for _ in 0..16 {
                if as_index != peer.as_index
                    && !sites.iter().any(|s: &LoginSite| s.as_index == as_index)
                {
                    break;
                }
                as_index = as_model.pick_for_country(peer.country, rng);
            }
            let (country, city) = if rng.chance(cfg.secondary_far) {
                let cities = WORLD_COUNTRIES[peer.country].cities;
                let mut city = rng.index(cities.len());
                if cities.len() > 1 {
                    while city == peer.city {
                        city = rng.index(cities.len());
                    }
                }
                (peer.country, city)
            } else {
                (peer.country, peer.city)
            };
            let c = &WORLD_COUNTRIES[country].cities[city];
            let host = 60000 + (peer.index.0 % 5000) * 4 + k as u32;
            sites.push(LoginSite {
                ip: ((as_index as u32 + 1) << 16) | (host & 0xffff),
                as_index,
                asn: as_model.specs()[as_index].asn,
                country,
                city,
                lat: c.lat,
                lon: c.lon,
            });
        }
        MobilityPlan {
            sites,
            roam_probability: if extra_as == 0 {
                0.0
            } else {
                rng.range_f64(0.15, 0.45)
            },
        }
    }

    /// Draw the site for one login.
    pub fn sample_site(&self, rng: &mut DetRng) -> &LoginSite {
        if self.sites.len() > 1 && rng.chance(self.roam_probability) {
            &self.sites[1 + rng.index(self.sites.len() - 1)]
        } else {
            &self.sites[0]
        }
    }

    /// Number of distinct ASes in the plan.
    pub fn distinct_ases(&self) -> usize {
        let mut ases: Vec<usize> = self.sites.iter().map(|s| s.as_index).collect();
        ases.sort_unstable();
        ases.dedup();
        ases.len()
    }

    /// Maximum pairwise distance between the plan's sites, km.
    pub fn max_distance_km(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.sites.len() {
            for j in (i + 1)..self.sites.len() {
                let a = &self.sites[i];
                let b = &self.sites[j];
                max = max.max(haversine_km(a.lat, a.lon, b.lat, b.lon));
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};

    fn plans() -> Vec<MobilityPlan> {
        let mut rng = DetRng::seeded(41);
        let pop = Population::generate(
            &PopulationConfig {
                peers: 12_000,
                ases: 300,
                ..PopulationConfig::default()
            },
            &mut rng,
        );
        let cfg = MobilityConfig::default();
        pop.peers
            .iter()
            .map(|p| MobilityPlan::generate(p, &pop.as_model, &cfg, &mut rng))
            .collect()
    }

    /// §6.2: 80.6 % single-AS, 13.4 % two, 6 % more than two.
    #[test]
    fn as_count_mix_matches_paper() {
        let plans = plans();
        let n = plans.len() as f64;
        let one = plans.iter().filter(|p| p.distinct_ases() == 1).count() as f64 / n;
        let two = plans.iter().filter(|p| p.distinct_ases() == 2).count() as f64 / n;
        let more = plans.iter().filter(|p| p.distinct_ases() > 2).count() as f64 / n;
        assert!((0.76..0.86).contains(&one), "single-AS {one}");
        assert!((0.10..0.18).contains(&two), "two-AS {two}");
        assert!((0.03..0.09).contains(&more), "more-AS {more}");
    }

    /// §6.2: 77 % of GUIDs stay within 10 km.
    #[test]
    fn distance_mix_matches_paper() {
        let plans = plans();
        let n = plans.len() as f64;
        let near = plans.iter().filter(|p| p.max_distance_km() <= 10.0).count() as f64 / n;
        assert!((0.70..0.88).contains(&near), "within-10km fraction {near}");
    }

    #[test]
    fn home_site_dominates_logins() {
        let plans = plans();
        let mut rng = DetRng::seeded(43);
        let plan = plans.iter().find(|p| p.sites.len() > 1).expect("a roamer");
        let mut home = 0;
        let n = 2000;
        for _ in 0..n {
            if plan.sample_site(&mut rng) == &plan.sites[0] {
                home += 1;
            }
        }
        let frac = home as f64 / n as f64;
        assert!(frac > 0.5, "home fraction {frac}");
    }

    #[test]
    fn stationary_peers_always_log_in_from_home() {
        let plans = plans();
        let mut rng = DetRng::seeded(44);
        let plan = plans
            .iter()
            .find(|p| p.sites.len() == 1)
            .expect("stationary");
        for _ in 0..50 {
            assert_eq!(plan.sample_site(&mut rng), &plan.sites[0]);
        }
    }

    #[test]
    fn secondary_sites_have_valid_geography() {
        for plan in plans() {
            for s in &plan.sites {
                assert!(s.country < WORLD_COUNTRIES.len());
                assert!(s.city < WORLD_COUNTRIES[s.country].cities.len());
                assert!((-90.0..=90.0).contains(&s.lat));
            }
        }
    }
}
