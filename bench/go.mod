module webcache/bench

go 1.22

require webcache v0.0.0

replace webcache => ../
