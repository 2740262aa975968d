//! An independent breadth-first search over the world's router graph, used
//! to check the program's precomputed host distances and peer paths.

use std::collections::VecDeque;

use concilium_sim::SimWorld;
use concilium_topology::Graph;
use concilium_types::RouterId;

/// Hop distances from `source` to every router; `u32::MAX` if unreachable.
pub fn hop_distances(graph: &Graph, source: RouterId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.num_routers()];
    let mut queue = VecDeque::from([source]);
    dist[source.index()] = 0;
    while let Some(r) = queue.pop_front() {
        let next = dist[r.index()] + 1;
        for &(nbr, _) in graph.neighbors(r) {
            if dist[nbr.index()] == u32::MAX {
                dist[nbr.index()] = next;
                queue.push_back(nbr);
            }
        }
    }
    dist
}

/// The router an overlay host sits on.
pub fn host_router(world: &SimWorld, h: usize) -> RouterId {
    world.node(h).addr().router()
}

/// Hosts whose `ip_distance` row disagrees with a fresh BFS from host `h`'s
/// router, as `(other host, program distance, BFS distance)`.
pub fn distance_mismatches(world: &SimWorld, h: usize) -> Vec<(usize, u32, u32)> {
    let dist = hop_distances(&world.topology().graph, host_router(world, h));
    (0..world.num_hosts())
        .filter_map(|j| {
            let bfs = dist[host_router(world, j).index()].min(u32::from(u16::MAX));
            let program = world.ip_distance(h, j);
            (program != bfs).then_some((j, program, bfs))
        })
        .collect()
}

/// Whether every routing-peer path of host `h` is a chain of adjacent links
/// from `h`'s router to the peer's router. Returns the first bad peer.
pub fn first_broken_peer_path(world: &SimWorld, h: usize) -> Option<usize> {
    let graph = &world.topology().graph;
    world.peers_of(h).iter().copied().find(|&p| {
        let Some(path) = world.path_to_peer(h, world.node(p).id()) else {
            return true;
        };
        let routers = path.routers();
        let links = path.links();
        routers.first() != Some(&host_router(world, h))
            || routers.last() != Some(&host_router(world, p))
            || routers.len() != links.len() + 1
            || links.iter().zip(routers.windows(2)).any(|(&link, pair)| {
                let (a, b) = graph.endpoints(link);
                !((a, b) == (pair[0], pair[1]) || (b, a) == (pair[0], pair[1]))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_sim::SimConfig;
    use concilium_topology::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_on_a_hand_built_graph() {
        // 0 - 1 - 2 - 3, plus a shortcut 0 - 3 and an isolated router 4.
        let mut b = GraphBuilder::new(5);
        let r: Vec<RouterId> = (0..5).map(RouterId).collect();
        b.add_link(r[0], r[1]);
        b.add_link(r[1], r[2]);
        b.add_link(r[2], r[3]);
        b.add_link(r[0], r[3]);
        let g = b.build();
        assert_eq!(hop_distances(&g, r[0]), vec![0, 1, 2, 1, u32::MAX]);
        assert_eq!(hop_distances(&g, r[2]), vec![2, 1, 0, 1, u32::MAX]);
    }

    #[test]
    fn tiny_world_agrees_with_the_program() {
        let mut rng = StdRng::seed_from_u64(5);
        let world = SimWorld::build(SimConfig::tiny(), &mut rng);
        for h in 0..world.num_hosts() {
            assert_eq!(distance_mismatches(&world, h), vec![]);
            assert_eq!(first_broken_peer_path(&world, h), None);
            assert_eq!(world.ip_distance(h, h), 0);
        }
    }
}
