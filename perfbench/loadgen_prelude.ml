(* Prepended at build time to the request mix and oracle of
   bench/loadgen.ml (everything above its aggregation section), which
   become the module Loadgen_mix.  Only Serve.Client.connect and
   Serve.Client.call are shadowed, so the benchmark times each request
   from its own code and reuses the mix and the oracle unchanged. *)
module Serve = struct
  include Serve

  module Client = struct
    include Serve.Client

    let connect = Serve_hook.connect
    let call = Serve_hook.call
  end
end

