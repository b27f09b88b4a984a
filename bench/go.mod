module flexrpc/bench

go 1.22

require flexrpc v0.0.0

replace flexrpc => ../
