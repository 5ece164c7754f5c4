module qcommit/bench

go 1.24

require qcommit v0.0.0

replace qcommit => ../
