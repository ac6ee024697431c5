"""lacsim: latency-aware caching simulator and analytical companion models.

The package splits into four layers: workload (Zipf popularity, Poisson
request streams), cache (replacement and probabilistic insertion policies),
netsim (the packet-level network simulator), and analytics (working-set
style approximations for miss probabilities and cache sizing). metrics holds
the result containers shared by all of them; cli wires everything to the
lacsim command. Import names from these modules (lacsim.netsim, ...); the
package root holds only the version.
"""

__version__ = "0.1.0"
